"""The library surface is what a command reaches, plus named oracles.

Every golden argv runs through ``cbtree.cli.main`` in one fresh interpreter
(so the ``lru_cache``s start empty) under ``sys.setprofile``, which records
each code object of ``cbtree`` that is called.  The public surface is the
functions, methods and property getters defined in each module whose names
have no leading underscore.  What no command reaches must be a named oracle,
kept for the reason given; anything else has no route and no reference use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

NAMED_ORACLES = {
    "exact_oracle.log_partition": "the README example and bench/probes.py",
    "exact_oracle.measure_prob": "a reference for check_consistency",
    "exact_oracle.marginal_prob": "a reference for check_consistency",
    "field_recursion.phase_predicate": "acceptance C2",
    "model.hamiltonian": "the model's energy",
    "model.sufficient_stats": "the reference for sufficient_stats_batch",
    "model.SpinConfig.all_minus": "the reference for sufficient_stats_batch",
    "model.SpinConfig.all_plus": "the reference for sufficient_stats_batch",
    "model.SpinConfig.flipped": "the reference for sufficient_stats_batch",
    "model.SpinConfig.from_spins": "the reference for sufficient_stats_batch",
    "model.SpinConfig.spin": "the reference for sufficient_stats_batch",
    "model.SpinConfig.spins": "the reference for sufficient_stats_batch",
    # No cbtree module imports parallel; it goes once bench/ stops
    # importing it (ROADMAP item 2).
    "parallel.parallel_map": "imported by bench/probes.py only",
    "parallel.thread_count": "imported by bench/probes.py only",
    "topology.boundary_sets": "the reference for boundary_census",
    "topology.connected_subsets": "bench/probes.py",
}

# Prints the public names defined in cbtree that no golden argv reaches.
_SCAN = """
import importlib, inspect, json, os, pkgutil, sys, tempfile
from pathlib import Path
import cbtree
from test_golden import CASES, run_case

package = os.path.dirname(cbtree.__file__) + os.sep
reached = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        reached.add(frame.f_code)

sys.setprofile(profile)
for argv in CASES.values():
    with tempfile.TemporaryDirectory() as tmp:
        run_case(argv, Path(tmp))
sys.setprofile(None)

def public(module, namespace, prefix=""):
    for name, obj in vars(namespace).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) and obj.__module__ == module.__name__ and not prefix:
            yield from public(module, obj, name + ".")
            continue
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        elif isinstance(obj, property):
            obj = obj.fget
        code = getattr(inspect.unwrap(obj), "__code__", None) if callable(obj) else None
        if code is not None and code.co_filename == module.__file__:
            yield prefix + name, code

unreached = []
for info in pkgutil.iter_modules(cbtree.__path__):
    module = importlib.import_module("cbtree." + info.name)
    unreached += [f"{info.name}.{name}" for name, code in public(module, module)
                  if code not in reached]
print(json.dumps(sorted(unreached)))
"""


def test_unreached_surface_is_the_named_oracles():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]), COLUMNS="80")
    done = subprocess.run([sys.executable, "-c", _SCAN], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    unreached = set(json.loads(done.stdout.splitlines()[-1]))
    unnamed = sorted(unreached - NAMED_ORACLES.keys())
    reached = sorted(NAMED_ORACLES.keys() - unreached)
    assert not unnamed and not reached, (
        f"reached by no command and not a named oracle: {unnamed}; "
        f"named oracles that a command reaches: {reached}")
