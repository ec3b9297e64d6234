"""Span recording around the public functions of the ``cbtree`` modules.

The tracer wraps every public function of the traced modules and rebinds
each wrapper wherever the original is bound inside the package (the
module itself and every module that imported it by name), so calls made
through ``module.func`` and through ``from module import func`` are both
seen.  Nothing under ``src/`` is edited; ``uninstall`` restores every
binding.

Spans live in memory as tuples and are turned into per-module figures
(``self_s``, ``calls``) or JSON lines only after the measured work ends.
Each span records the operation it belongs to, so the spans of one CLI
call share an identifier.

``parallel_map`` gets one extra span per item, named after the function
the caller fanned out and attributed to the caller's module.  An item span
starts in a worker thread and takes the caller's ``parallel_map`` span as
parent, so a module's self time stays with the module whose code ran.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter_ns

import numpy as np

PACKAGE = "cbtree"
MODULES = ("cli", "ground_states", "free_energy", "field_recursion",
           "exact_oracle", "model", "topology", "parallel")

# thread_count is a helper of parallel_map, not a layer entry point; a span
# on it would double parallel.calls.
_SKIP = {("parallel", "thread_count")}

# Span tuple fields.
_ID, _PARENT, _OP, _NAME, _START, _END, _THREAD, _CALL = range(8)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans while ``active``; install once, reset per pass."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[tuple] = []
        self.configs_enumerated = 0
        self.items = 0
        self.busy_ns = 0
        self.wait_ns = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[dict, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.configs_enumerated = 0
        self.items = 0
        self.busy_ns = 0
        self.wait_ns = 0

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _run(self, name, fn, args, kwargs, parent=None, call=True):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end,
                               threading.get_ident(), call))

    def _wrap(self, name: str, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One span per resume, so the consumer's own work between items
            # stays in the consumer's span; only the first resume is a call.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = True
                while True:
                    if not tracer.active:
                        yield from gen
                        return
                    try:
                        item = tracer._run(name, next, (gen,), {}, call=first)
                    except StopIteration:
                        return
                    first = False
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._run(name, fn, args, kwargs)
        return traced

    def _count_configs(self, fn):
        """Adds the size of the ``configs`` argument to configs_enumerated."""
        tracer = self

        @functools.wraps(fn)
        def counted(tree, params, h, configs):
            if tracer.active:
                n = int(np.size(configs))
                with tracer._lock:
                    tracer.configs_enumerated += n
            return fn(tree, params, h, configs)
        return counted

    def _fan_out(self, fn):
        """parallel_map whose items carry spans and busy/wait counters.

        Every item counts in ``items`` and ``wait_ns``; only items that do
        not fan out again count in ``busy_ns``, since an outer item's time
        is mostly spent waiting for its own inner items.
        """
        tracer = self

        @functools.wraps(fn)
        def fan_out(item_fn, items):
            if not tracer.active:
                return fn(item_fn, items)
            local = tracer._local
            outer = getattr(local, "item", None)
            if outer is not None:
                outer["nested"] = True
            parent = tracer._stack()[-1]
            name = f"{_short(item_fn.__module__)}.{item_fn.__qualname__}"
            submitted = perf_counter_ns()

            def item(x):
                start = perf_counter_ns()
                saved = getattr(local, "item", None)
                local.item = record = {"nested": False}
                try:
                    return tracer._run(name, item_fn, (x,), {}, parent=parent, call=False)
                finally:
                    end = perf_counter_ns()
                    local.item = saved
                    with tracer._lock:
                        tracer.items += 1
                        tracer.wait_ns += start - submitted
                        if not record["nested"]:
                            tracer.busy_ns += end - start
            return fn(item, items)
        return fan_out

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of MODULES and rebind it package-wide."""
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or (short, attr) in _SKIP:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                inner = obj
                if (short, attr) == ("exact_oracle", "log_weights"):
                    inner = self._count_configs(inner)
                if (short, attr) == ("parallel", "parallel_map"):
                    inner = self._fan_out(inner)
                # Keyed by id; the originals stay alive in the module dicts.
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", inner)
        namespaces = [vars(m) for name, m in sys.modules.items()
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in wrappers:
                    self._patches.append((ns, attr, obj))
                    ns[attr] = wrappers[id(obj)]

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            ns[attr] = obj
        self._patches = []

    # -- results -----------------------------------------------------------

    def summary(self, op_commands: list[str]) -> dict:
        """Per-module self time and call counts of the recorded spans.

        A span's self time is its duration minus the part of its interval
        covered by its children (their union, since items of one fan-out
        overlap).  Time covered by no wrapped call inside an operation is
        outside every module and is not reported.
        """
        children: dict[int, list[tuple[int, int]]] = {}
        for s in self.spans:
            children.setdefault(s[_PARENT], []).append((s[_START], s[_END]))
        self_ns = dict.fromkeys(MODULES, 0)
        calls = dict.fromkeys(MODULES, 0)
        command_ns: dict[str, int] = {}
        for s in self.spans:
            module = s[_NAME].split(".", 1)[0]
            start, end = s[_START], s[_END]
            covered = 0
            cursor = start
            for c0, c1 in sorted(children.get(s[_ID], ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            self_ns[module] += end - start - covered
            if s[_CALL]:
                calls[module] += 1
            if s[_NAME] == "cli.main" and s[_PARENT] == 0:
                cmd = op_commands[s[_OP]]
                command_ns[cmd] = command_ns.get(cmd, 0) + end - start
        out = {}
        for m in MODULES:
            out[f"{m}.self_s"] = self_ns[m] / 1e9
            out[f"{m}.calls"] = calls[m]
        for cmd, ns in command_ns.items():
            out[f"cli.main.{cmd}_s"] = ns / 1e9
        out["parallel.items"] = self.items
        out["parallel.busy_s"] = self.busy_ns / 1e9
        out["parallel.queue_wait_s"] = self.wait_ns / 1e9
        out["exact_oracle.configs_enumerated"] = self.configs_enumerated
        return out


def write_jsonl(spans: list[tuple], path: str) -> None:
    """One JSON object per span, in completion order."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "op": s[_OP], "id": s[_ID], "parent": s[_PARENT], "name": s[_NAME],
                "start_ns": s[_START], "end_ns": s[_END], "thread": s[_THREAD],
                "call": s[_CALL],
            }, separators=(",", ":")) + "\n")
