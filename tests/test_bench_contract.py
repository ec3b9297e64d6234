"""The benchmark's operations pass their own checks on the current code.

``bench/workloads.py`` builds each workload's CLI calls and checks what
they print, so a key or a column that a check reads is part of the CLI's
contract.  This runs one seed-0 pass of every workload in process through
``cbtree.cli.main`` and applies each operation's check and expected exit
code, so a dropped key fails here rather than only in the benchmark.
``bench/`` is imported, never changed.
"""

import contextlib
import io
import sys
import types
from pathlib import Path

import pytest

from cbtree.cli import main

WORKLOADS_PY = Path(__file__).parent.parent / "bench" / "workloads.py"


def _load_workloads() -> types.ModuleType:
    """``bench/workloads.py`` as a module, compiled from source so that no
    bytecode is written under ``bench/``."""
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec"),
         module.__dict__)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_meets_its_checks(name):
    for op in workloads.build(name, 0):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(op.argv))
        assert code == op.expect_exit, op.argv
        assert op.check(op, out.getvalue()) > 0, op.argv
