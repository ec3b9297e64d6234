"""README's ``Library`` example runs against the current API and its
comments hold."""

import math
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example():
    ns = {}
    exec(compile(library_block(), "README.md", "exec"), ns)
    fps = ns["fps"]
    # regime "three": u1 < 1 < u3, u1*u3 = 1
    assert fps.regime == "three"
    assert fps.u1 < 1.0 < fps.u3
    assert math.isclose(fps.u1 * fps.u3, 1.0, rel_tol=1e-15)
    # the telescoped ln Z equals the exact one to 1e-12
    assert abs(ns["ln_z_fast"] - ns["ln_z_exact"]) <= 1e-12
    assert ns["report"].branch == "u3"
