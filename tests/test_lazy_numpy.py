"""numpy is imported on first use: fresh interpreters show which commands load it.

Each case runs ``cbtree.cli.main`` in a new interpreter, so ``sys.modules``
starts empty of numpy; nothing here is timed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAZY_MODULES = ["cbtree.cli", "cbtree.exact_oracle", "cbtree.field_recursion",
                "cbtree.free_energy", "cbtree.ground_states", "cbtree.model",
                "cbtree.topology"]

# Runs argv through cli.main and records in ``out`` what it loaded; a
# test may append code that adds to ``out``, which is printed last.
_PROBE = """
import json, sys
from cbtree import cli
imported = [m for m in ("numpy", "concurrent.futures") if m in sys.modules]
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code

def rebound():
    np = sys.modules.get("numpy", object())
    return sorted(n for n, m in sys.modules.items()
                  if n.startswith("cbtree") and getattr(m, "np", None) is np)

out = {"at_import": imported, "code": code, "numpy": "numpy" in sys.modules,
       "rebound": rebound()}
"""


def run_python(code, *args, threads="2"):
    env = dict(os.environ, PYTHONPATH=SRC, CBTREE_THREADS=threads)
    done = subprocess.run([sys.executable, "-c", code + "\nprint(json.dumps(out))", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_neither_numpy_nor_the_executor():
    assert run_python(_PROBE, "--help")["at_import"] == []


@pytest.mark.parametrize("argv, code", [
    (["fixed-points", "--J", "1", "--J1", "1", "--beta", "2", "--format", "json"], 0),
    (["fixed-points", "--J", "0.4", "--J1", "-1.3", "--beta", "2"], 0),
    (["fixed-points", "--theta", "5", "--theta1", "2"], 0),
    (["--help"], 0),
    (["fixed-points", "--theta", "5", "--theta1", "2", "--bogus"], 2),
    (["fixed-points", "--J", "1e308", "--J1", "1", "--beta", "10"], 2),
    (["fixed-points", "--J", "abc", "--J1", "1", "--beta", "1"], 2),
    (["free-energy", "--J", "1", "--J1", "1"], 2),
])
def test_numpy_free_commands_never_import_numpy(argv, code):
    out = run_python(_PROBE, *argv)
    assert (out["code"], out["numpy"]) == (code, False)


def test_first_use_rebinds_each_module_np_to_numpy():
    # A command rebinds the np of the modules it used; any other module's
    # np rebinds on its own first attribute lookup.  A command loads only the
    # modules it calls, so the others are imported here.
    touch_all = f"""
import importlib
for name in {LAZY_MODULES!r}:
    assert importlib.import_module(name).np.float64 is sys.modules["numpy"].float64
out["touched"] = rebound()
"""
    out = run_python(_PROBE + touch_all, "phase-diagram", "--grid", "theta1=1.8:4:20",
                     "--grid", "theta=0.5:8:20")
    assert out["code"] == 0
    assert out["rebound"] == ["cbtree.cli", "cbtree.field_recursion"]
    assert out["touched"] == LAZY_MODULES


# Threads started here make the first numpy calls of exact_oracle, model and
# field_recursion at once, through the per-configuration log-sum-exp of a
# non-constant depth-2 field; small blocks give it several blocks to reduce.
_THREADED_FIRST_USE = """
import json, sys, threading
from cbtree import exact_oracle, field_recursion, model
from cbtree.model import ModelParams
from cbtree.topology import build_tree
exact_oracle._BLOCK = 64
assert "numpy" not in sys.modules
h = [0.3, -0.2, 0.5, 0.1, -0.4, 0.25]
params = ModelParams(J=0.6, J1=1.0, beta=2.0)
start = threading.Barrier(4)
ln_z = [None] * 4

def first_use(k):
    start.wait()
    ln_z[k] = exact_oracle._log_partition_enumerated(build_tree(2, "full"), params, h)

threads = [threading.Thread(target=first_use, args=(k,)) for k in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
ln_z.append(exact_oracle._log_partition_enumerated(build_tree(2, "full"), params, h))
numpy = sys.modules["numpy"]
out = {"ln_z": ln_z, "executor": "concurrent.futures" in sys.modules,
       "rebound": [m.np is numpy for m in (exact_oracle, field_recursion, model)]}
"""


def test_first_numpy_use_in_worker_threads():
    out = run_python(_THREADED_FIRST_USE, threads="2")
    assert None not in out["ln_z"] and len(set(out["ln_z"])) == 1
    assert out["rebound"] == [True, True, True]
    assert out["executor"] is False
