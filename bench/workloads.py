"""Benchmark workloads: seeded CLI argument lists and the check on each output.

An operation is one ``cbtree.cli.main(argv)`` call.  Its inputs come only
from the workload seed.  Its captured stdout is checked against the other
solution route wherever one exists: enumeration-route masses are recomputed
from the level-factor recursion, and fixed points, free energies and the
phase classification are checked against their closed-form identities.

Each check returns the number of parameter points (beta values, grid cells
or draws) the operation completed, or raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cbtree.exact_oracle import FULL_ENUM_DEPTH_CAP
from cbtree.field_recursion import RESIDUAL_TOL, propagate_inward
from cbtree.free_energy import log_partition_recursive
from cbtree.model import ModelParams, stat_maxima
from cbtree.topology import build_tree

# Relative gap allowed between the enumeration-route and recursion-route
# masses, i.e. absolute gap between the two ln Z.  |ln Z| stays below ~2e3
# here, so this is ~5e-13 relative in ln Z; observed gaps are below 1e-12.
MASS_RTOL = 1e-9
# u1 * u3 = 1 holds to a few ulps because u1 is computed as 1 / u3.
PRODUCT_RTOL = 1e-12
# F(u1) = F(u3) and the Richardson limit equals the closed form to rounding.
FREE_ENERGY_RTOL = 1e-10
# Points this close, in ln(theta) or ln(theta1), to the critical curve or to
# the sqrt(3) pole may carry any regime tag; outside the band the tag must
# match the strict predicate theta > 2*theta1/(theta1**2 - 3).
REGIME_BAND = 1e-6

# Draws with max(|beta*J|, |beta*J1|) at or above this reach the known
# float-overflow defects of the theta-form fixed-point solve, where theta1**2
# and theta1/theta exceed the float range: OverflowError, ZeroDivisionError,
# a false "u must be positive" exit 2, or a three-solution point tagged
# "unique".  Workload draws stay below it, so no timed operation fails;
# ``defect_draws`` keeps the whole range and is counted apart.
OVERFLOW_DOMAIN = math.log(np.finfo(float).max) / 4.0

# lemma-check --depth 3: config_count, config_violations, max_stat_gap,
# stat_gap_bound, subset_count, subset_violations.  The bound is false at
# the degree-3 root, so the command must exit 1 with exactly these counts.
LEMMA_DEPTH3 = {"config_count": 4194304, "config_violations": 118098,
                "max_stat_gap": 11, "stat_gap_bound": 9,
                "subset_count": 17687, "subset_violations": 45}


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[["Op", str], int]

    @property
    def command(self) -> str:
        return self.argv[0]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(a: float, b: float, rtol: float) -> bool:
    """Relative agreement, absolute below magnitude 1."""
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _arg(op: Op, flag: str) -> str:
    """The value of ``flag``, given as ``flag value`` or ``flag=value``."""
    for i, a in enumerate(op.argv):
        if a == flag:
            return op.argv[i + 1]
        if a.startswith(flag + "="):
            return a[len(flag) + 1:]
    raise KeyError(flag)


def _grid(op: Op, axis: str) -> np.ndarray:
    for i, a in enumerate(op.argv):
        if a == "--grid" and op.argv[i + 1].startswith(axis + "="):
            start, stop, count = op.argv[i + 1].split("=", 1)[1].split(":")
            return np.linspace(float(start), float(stop), int(count))
    raise KeyError(axis)


def _rows(text: str, columns: str, keys):
    """Pair each data row of the CSV table whose header starts with
    ``columns`` with the next key.

    Columns are read by name, so columns appended later do not break a
    check.  Rows are streamed, so checking a large table holds no copy of
    it; the row count must equal the key count.
    """
    lines = iter(io.StringIO(text))
    for line in lines:
        if line.startswith(columns):
            break
    else:
        raise CheckFailed(f"missing table with columns {columns!r}")
    # Data rows lead with a positive number; the next table's header does not.
    body = csv.DictReader(itertools.takewhile(lambda line: line[:1].isdigit(), lines),
                          fieldnames=line.rstrip("\n").split(","))
    for row, key in itertools.zip_longest(body, keys):
        _expect(row is not None and key is not None,
                f"row count of table {columns!r} differs from its input grid")
        yield row, key


def _expected_regime(log_theta: float, log_theta1: float) -> str | None:
    """Strict classification, or None inside the band where any tag passes.

    theta > 2*theta1/(theta1**2 - 3) with theta1 > sqrt(3) is evaluated as
    ln(theta) + ln(theta1) + ln(1 - 3/theta1**2) > ln 2, which stays finite
    where theta1**2 or theta1/theta would overflow.
    """
    pole = 0.5 * math.log(3.0)
    if abs(log_theta1 - pole) <= REGIME_BAND:
        return None
    if log_theta1 < pole:
        return "unique"
    margin = (log_theta + log_theta1 + math.log1p(-3.0 * math.exp(-2.0 * log_theta1))
              - math.log(2.0))
    if abs(margin) <= REGIME_BAND:
        return None
    return "three" if margin > 0.0 else "unique"


def _check_pair(regime: str, u1: float, u3: float, log_theta: float, log_theta1: float) -> None:
    _expect(_close(u1 * u3, 1.0, PRODUCT_RTOL), f"u1*u3 = {u1 * u3!r}")
    expected = _expected_regime(log_theta, log_theta1)
    _expect(expected is None or regime == expected,
            f"regime {regime!r} at ln(theta)={log_theta!r} ln(theta1)={log_theta1!r}, "
            f"expected {expected!r}")
    _expect((regime == "three") == (u3 > 1.0), f"regime {regime!r} with u3={u3!r}")


def recursion_masses(J: float, J1: float, beta: float, depth: int,
                     u3: float, u1: float) -> tuple[float, float]:
    """All-plus mass under field h3 and all-minus mass under h1, by recursion.

    ln Z comes from the telescoped level factors; the extreme
    configurations' log weights from the closed-form statistics
    ``stat_maxima`` plus the boundary field term.
    """
    params = ModelParams(J=J, J1=J1, beta=beta)
    tree = build_tree(depth, "full")
    a_max, b_max, _ = stat_maxima(tree)
    bulk = beta * J * a_max + beta * J1 * b_max
    nb = tree.level_size(depth)

    def mass(u: float, sign: float) -> float:
        h = 0.5 * math.log(u)
        ln_z = log_partition_recursive(params, propagate_inward(tree, params, h))
        return math.exp(bulk + sign * h * nb - ln_z)

    return mass(u3, 1.0), mass(u1, -1.0)


def _log_thetas(J: float, J1: float, beta: float) -> tuple[float, float]:
    return 2.0 * beta * J, 2.0 * beta * J1


# ---------------------------------------------------------------------------
# checks, one per command


def check_beta_sweep(op: Op, out: str) -> int:
    J, J1 = float(_arg(op, "--J")), float(_arg(op, "--J1"))
    depth = int(_arg(op, "--depth"))
    betas = _grid(op, "beta")
    columns = "beta,regime,u1,u3,F_u3,F_u1,F_sym_check,root_prob,mass_plus"
    for r, beta in _rows(out, columns, betas):
        _expect(float(r["beta"]) == float(beta), f"beta {r['beta']} out of grid order")
        u1, u3 = float(r["u1"]), float(r["u3"])
        _check_pair(r["regime"], u1, u3, *_log_thetas(J, J1, float(beta)))
        f3, f1, sym = float(r["F_u3"]), float(r["F_u1"]), float(r["F_sym_check"])
        _expect(sym == abs(f3 - f1), "F_sym_check differs from |F_u3 - F_u1|")
        _expect(_close(f3, f1, FREE_ENERGY_RTOL), f"F_u3={f3!r} vs F_u1={f1!r}")
        _expect(float(r["root_prob"]) == u3 / (u3 + 1.0), "root_prob != u3/(u3+1)")
        if depth <= FULL_ENUM_DEPTH_CAP and r["regime"] == "three":
            plus, _ = recursion_masses(J, J1, float(beta), depth, u3, u1)
            _expect(_rel_close(float(r["mass_plus"]), plus, MASS_RTOL),
                    f"mass_plus {r['mass_plus']} vs recursion {plus!r}")
        else:
            _expect(r["mass_plus"] == "", "mass_plus outside the enumeration range")
    return len(betas)


def check_ground_state(op: Op, out: str) -> int:
    J, J1 = float(_arg(op, "--J")), float(_arg(op, "--J1"))
    depth = int(_arg(op, "--depth"))
    betas = _grid(op, "beta")
    for r, beta in _rows(out, "beta,regime,u1,u3,root_prob,mass_plus,mass_minus", betas):
        _expect(float(r["beta"]) == float(beta), f"beta {r['beta']} out of grid order")
        u1, u3 = float(r["u1"]), float(r["u3"])
        _check_pair(r["regime"], u1, u3, *_log_thetas(J, J1, float(beta)))
        _expect(float(r["root_prob"]) == u3 / (u3 + 1.0), "root_prob != u3/(u3+1)")
        _expect(r["regime"] == "three", f"beta={beta!r} left the three-solution regime")
        plus, minus = recursion_masses(J, J1, float(beta), depth, u3, u1)
        _expect(_rel_close(float(r["mass_plus"]), plus, MASS_RTOL),
                f"mass_plus {r['mass_plus']} vs recursion {plus!r}")
        _expect(_rel_close(float(r["mass_minus"]), minus, MASS_RTOL),
                f"mass_minus {r['mass_minus']} vs recursion {minus!r}")
    return len(betas)


def check_phase_diagram(op: Op, out: str) -> int:
    theta1s, thetas = _grid(op, "theta1"), _grid(op, "theta")
    cells = itertools.product(theta1s.tolist(), thetas.tolist())
    for r, (t1, t) in _rows(out, "theta1,theta,regime,", cells):
        _expect(float(r["theta1"]) == t1 and float(r["theta"]) == t,
                f"cell ({r['theta1']}, {r['theta']}) out of grid order")
        _check_pair(r["regime"], float(r["u1"]), float(r["u3"]), math.log(t), math.log(t1))
    # The curve skips theta1 within 1e-9 of the sqrt(3) pole.
    above = [t1 for t1 in theta1s.tolist() if t1 > math.sqrt(3.0) + 1e-9]
    for r, t1 in _rows(out, "theta1,theta_c,", above):
        tc = 2.0 * t1 / (t1 * t1 - 3.0)
        _expect(_close(float(r["theta_c"]), tc, 1e-15), f"theta_c {r['theta_c']} vs {tc!r}")
        _expect(_close(float(r["j_beta"]), 0.5 * math.log(tc), 1e-15), "j_beta != ln(theta_c)/2")
    return len(theta1s) * len(thetas)


def check_fixed_points(op: Op, out: str) -> int:
    r = json.loads(out)["result"]
    J, J1, beta = float(_arg(op, "--J")), float(_arg(op, "--J1")), float(_arg(op, "--beta"))
    _expect((r["J"], r["J1"], r["beta"]) == (J, J1, beta), "parameters not echoed")
    _check_pair(r["regime"], r["u1"], r["u3"], *_log_thetas(J, J1, beta))
    for name in ("u1", "u3"):
        _expect(r[f"residual_{name}"] <= RESIDUAL_TOL * max(1.0, r[name]),
                f"residual_{name} = {r[f'residual_{name}']!r}")
    _expect(r["h3"] == 0.5 * math.log(r["u3"]) and r["h1"] == 0.5 * math.log(r["u1"]),
            "h != ln(u)/2")
    return 1


def check_free_energy(op: Op, out: str) -> int:
    doc = json.loads(out)
    branch = _arg(op, "--branch")
    _expect(doc["branch"] == branch, "branch not echoed")
    _expect(len(doc["f_n"]) == 30 and len(doc["ln_z"]) == 30, "expected n_max = 30 terms")
    _expect(_close(doc["f_extrapolated"], doc["f_const_field"], FREE_ENERGY_RTOL),
            f"f_extrapolated {doc['f_extrapolated']!r} vs f_const_field {doc['f_const_field']!r}")
    _expect(doc["h_star"] == 0.5 * math.log(doc["u_star"]), "h_star != ln(u_star)/2")
    return 1


def check_verify(op: Op, out: str) -> int:
    doc = json.loads(out)
    _expect(doc["seed"] == int(_arg(op, "--seed")), "seed not echoed")
    _expect(doc["all_pass"] is True, "verify reports a failing check")
    _expect(doc["checks"] and all(c["pass"] for c in doc["checks"]),
            "expected every check to pass")
    return sum(c["draws"] for c in doc["checks"])


def check_lemma_depth3(op: Op, out: str) -> int:
    doc = json.loads(out)
    got = {k: doc[k] for k in LEMMA_DEPTH3}
    _expect(got == LEMMA_DEPTH3, f"lemma-check counts {got}")
    _expect(doc["clean"] is False, "lemma-check reports clean")
    return doc["config_count"] + doc["subset_count"]


# ---------------------------------------------------------------------------
# workloads


def _r(x: float) -> str:
    return repr(float(x))


def _beta_grid(rng, lo, hi, count) -> str:
    start = rng.uniform(*lo)
    stop = rng.uniform(*hi)
    return f"beta={_r(start)}:{_r(stop)}:{count}"


def oracle_sweep(rng) -> list[Op]:
    """Depth-3 sweeps: every point is one or two 2**22-configuration scans."""
    # J1 >= 0.5 and J >= 0.2 keep every beta >= 1 in the three-solution regime.
    J1 = rng.uniform(0.5, 1.5)
    J = rng.uniform(0.2, 1.0)
    sweep = ("beta-sweep", "--J", _r(J), "--J1", _r(J1),
             "--grid", _beta_grid(rng, (1.0, 10.0), (30.0, 50.0), 4), "--depth", "3")
    # Frustrated J < 0 < J1 with J + J1 >= 0.4 and beta >= 3 stays in the
    # three-solution regime, so each beta costs two scans.
    gJ1 = rng.uniform(0.8, 1.2)
    gJ = -gJ1 * rng.uniform(0.2, 0.5)
    ground = ("ground-state", "--J", _r(gJ), "--J1", _r(gJ1),
              "--grid", _beta_grid(rng, (3.0, 10.0), (30.0, 50.0), 2), "--depth", "3")
    return [Op(sweep, 0, check_beta_sweep), Op(ground, 0, check_ground_state)]


N_DRAWS = 800
# Workload draws: |beta*J|, |beta*J1| up to 1e2, below OVERFLOW_DOMAIN.
DRAW_MAX_EXP = 2.0
assert 10 ** DRAW_MAX_EXP < OVERFLOW_DOMAIN
# Known-defect draws: the whole range the API accepts, a fixed set.
DEFECT_MAX_EXP, DEFECT_SEED, N_DEFECT_DRAWS = 3.0, 0, 400


def _draws(rng, count: int, max_exp: float, joined: bool) -> list[Op]:
    """Alternate ``fixed-points`` and ``free-energy`` single-point draws.

    |beta*J| and |beta*J1| are log-uniform over [1e-3, 10**max_exp] with
    random signs.  ``joined`` spells each option ``--J=-1e-05``; spelled
    ``--J -1e-05``, argparse takes a negative e-notation value for an option
    and exits 2.
    """
    ops = []
    for i in range(count):
        beta = 10 ** rng.uniform(-1.0, math.log10(50.0))
        bj, bj1 = rng.choice([-1.0, 1.0], 2) * 10 ** rng.uniform(-3.0, max_exp, 2)
        point = []
        for flag, value in (("--J", bj / beta), ("--J1", bj1 / beta), ("--beta", beta)):
            point += [f"{flag}={_r(value)}"] if joined else [flag, _r(value)]
        if i % 2 == 0:
            ops.append(Op(("fixed-points", *point, "--format", "json"), 0, check_fixed_points))
        else:
            branch = str(rng.choice(["u1", "u3"]))
            ops.append(Op(("free-energy", *point, "--branch", branch, "--format", "json"),
                          0, check_free_energy))
    return ops


def recursion_grid(rng) -> list[Op]:
    """Recursion-only commands: a 200x200 phase diagram, a depth-4 sweep and
    single-point draws over five decades of |beta*J|."""
    theta1 = f"theta1={_r(rng.uniform(1.0, 1.5))}:{_r(rng.uniform(3.5, 5.0))}:200"
    theta = f"theta={_r(rng.uniform(0.2, 0.8))}:{_r(rng.uniform(6.0, 10.0))}:200"
    ops = [Op(("phase-diagram", "--grid", theta1, "--grid", theta), 0, check_phase_diagram)]
    J, J1 = rng.uniform(-1.5, 1.5, 2)
    ops.append(Op(("beta-sweep", "--J", _r(J), "--J1", _r(J1),
                   "--grid", _beta_grid(rng, (0.5, 2.0), (20.0, 50.0), 300), "--depth", "4"),
                  0, check_beta_sweep))
    return ops + _draws(rng, N_DRAWS, DRAW_MAX_EXP, joined=True)


def defect_draws() -> list[Op]:
    """Fixed draws over the whole accepted range, spelled ``--J value``.

    They reach the known overflow defects and the argparse exit 2, so they
    are not timed: their failure count is reported on its own.
    """
    return _draws(np.random.default_rng(DEFECT_SEED), N_DEFECT_DRAWS, DEFECT_MAX_EXP,
                  joined=False)


def verify_lemma(rng) -> list[Op]:
    """The cross-route identity report and the exhaustive depth-3 bound sweep."""
    seed = int(rng.integers(0, 2**31))
    return [Op(("verify", "--seed", str(seed)), 0, check_verify),
            Op(("lemma-check", "--depth", "3"), 1, check_lemma_depth3)]


WORKLOADS = {
    "oracle_sweep": oracle_sweep,
    "recursion_grid": recursion_grid,
    "verify_lemma": verify_lemma,
}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](np.random.default_rng(seed))
