"""Command-line front end: sweeps, verification, machine-readable output.

Outputs are byte-reproducible: floats are printed with 17 significant
digits, newlines are always ``\\n``, grid rows are computed and written in
grid order, and the ``verify`` report is a pure function of its seed.  The
commands themselves run on one thread; only the enumeration passes inside
``exact_oracle`` spread their blocks over ``CBTREE_THREADS`` workers, and
those reduce in a fixed block order.

Exit codes: 0 success, 1 verification failure, 2 usage error (an input
outside the range the arithmetic handles counts as one).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import exact_oracle, ground_states
from .free_energy import (
    free_energy,
    level_log_factor,
    log_cosh_cross,
    log_cosh_even,
    effective_field,
    log_partition_recursive,
    pair_log_weights,
    zero_temperature_limit,
)
from .field_recursion import (
    REGIME_THREE,
    child_to_parent,
    critical_curve,
    propagate_inward,
    ti_fixed_points,
    ti_map,
)
from .model import ModelParams
from .topology import build_tree

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

SCHEMA_VERSION = 3


class UsageError(Exception):
    pass


def _point_params(args: argparse.Namespace) -> ModelParams:
    coupling = [v is not None for v in (args.J, args.J1, args.beta)]
    theta_mode = [v is not None for v in (args.theta, args.theta1)]
    if all(coupling) and not any(theta_mode):
        return ModelParams(J=args.J, J1=args.J1, beta=args.beta)
    if all(theta_mode) and not any(coupling):
        return ModelParams.from_thetas(args.theta, args.theta1)
    raise UsageError("give exactly one of (--J --J1 --beta) or (--theta --theta1)")


def _grid(grids: dict, name: str) -> np.ndarray:
    if name not in grids:
        raise UsageError(f"missing --grid {name}=start:stop:count")
    return grids[name]


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return _fmt(x)


def _parse_grid_specs(specs) -> dict:
    grids = {}
    for spec in specs or ():
        try:
            name, rng = spec.split("=", 1)
            start_s, stop_s, count_s = rng.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
        except ValueError:
            raise UsageError(f"bad grid spec {spec!r}; expected name=start:stop:count") from None
        if count < 1:
            raise UsageError(f"empty grid {spec!r}")
        if count > 1 and not stop > start:
            raise UsageError(f"grid {spec!r} is not strictly increasing")
        grids[name.strip()] = np.linspace(start, stop, count)
    return grids


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def _csv(header: list[str], rows, comment_lines=()) -> str:
    lines = [f"# {line}" for line in comment_lines]
    lines.append(",".join(header))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_doc(command: str, payload: dict) -> str:
    doc = {"schema": SCHEMA_VERSION, "command": command}
    doc.update(payload)
    return json.dumps(_jsonify(doc), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_fixed_points(args: argparse.Namespace) -> int:
    params = _point_params(args)
    fps = ti_fixed_points(params)
    row = {
        "J": params.J,
        "J1": params.J1,
        "beta": params.beta,
        "theta": params.theta_exp,
        "theta1": params.theta1_exp,
        "regime": fps.regime,
        "u1": fps.u1,
        "u2": fps.u2,
        "u3": fps.u3,
        "h1": fps.h1,
        "h3": fps.h3,
        "residual_u1": abs(ti_map(params, fps.u1) - fps.u1),
        "residual_u3": abs(ti_map(params, fps.u3) - fps.u3),
    }
    if args.fmt == "json":
        text = _json_doc("fixed-points", {"result": row})
    else:
        keys = list(row)
        text = _csv(keys, [[row[k] for k in keys]])
    _write_output(args.out, text)
    return EXIT_OK


def cmd_phase_diagram(args: argparse.Namespace) -> int:
    grids = _parse_grid_specs(args.grid)
    theta1_grid = _grid(grids, "theta1")
    theta_grid = _grid(grids, "theta")
    curve_out = args.curve_out
    if curve_out is None and args.out not in (None, "-"):
        curve_out = args.out + ".curve"

    grid_rows = []
    for t1 in theta1_grid:
        for t in theta_grid:
            fps = ti_fixed_points(ModelParams.from_thetas(float(t), float(t1)))
            grid_rows.append((t1, float(t), fps.regime, fps.u1, fps.u3))

    pole = math.sqrt(3.0)
    curve_points = [float(t1) for t1 in theta1_grid if t1 > pole + 1e-9]
    skipped = len(theta1_grid) - len(curve_points)
    if skipped:
        print(f"warning: skipped {skipped} theta1 grid points at or below the "
              f"sqrt(3) pole of the critical curve", file=sys.stderr)
    curve_rows = [(t1, tc, j1b, jb) for t1, tc, j1b, jb in critical_curve(curve_points)]

    if args.fmt == "json":
        text = _json_doc("phase-diagram", {
            "rows": [dict(zip(("theta1", "theta", "regime", "u1", "u3"), r)) for r in grid_rows],
            "curve": [dict(zip(("theta1", "theta_c", "j1_beta", "j_beta"), r)) for r in curve_rows],
        })
        _write_output(args.out, text)
    else:
        _write_output(args.out, _csv(["theta1", "theta", "regime", "u1", "u3"], grid_rows))
        curve_text = _csv(["theta1", "theta_c", "j1_beta", "j_beta"], curve_rows)
        _write_output(curve_out, curve_text)
    return EXIT_OK


def cmd_free_energy(args: argparse.Namespace) -> int:
    params = _point_params(args)
    rep = free_energy(params, branch=args.branch, n_max=args.n_max)
    payload = {
        "params": {"J": params.J, "J1": params.J1, "beta": params.beta},
        "branch": rep.branch,
        "u_star": rep.u_star,
        "h_star": rep.h_star,
        "level_rate": rep.level_rate,
        "f_extrapolated": rep.f_extrapolated,
        "f_const_field": rep.f_const_field,
        "tail_gap": rep.tail_gap,
        "converged": rep.converged,
        "f_n": list(rep.f_n),
        "ln_z": list(rep.ln_z),
    }
    if args.experimental_closed_form:
        asym = zero_temperature_limit(params.J, params.J1, closed_forms=True)
        payload["asymptote"] = {
            "slope": asym.slope,
            "limit": asym.limit,
            "method": asym.method,
            "stable": asym.stable,
            "samples": [list(s) for s in asym.samples],
            "closed_form_verbatim": asym.closed_form_verbatim,
            "closed_form_corrected": asym.closed_form_corrected,
        }
    if args.fmt == "json":
        text = _json_doc("free-energy", payload)
    else:
        rows = [(n, z, f) for n, (z, f) in enumerate(zip(rep.ln_z, rep.f_n), start=1)]
        comments = [
            f"free-energy J={_fmt(params.J)} J1={_fmt(params.J1)} beta={_fmt(params.beta)} "
            f"branch={rep.branch}",
            f"f_extrapolated={_fmt(rep.f_extrapolated)} f_const_field={_fmt(rep.f_const_field)}",
        ]
        text = _csv(["n", "ln_z", "f_n"], rows, comments)
    _write_output(args.out, text)
    return EXIT_OK


def _beta_sweep_row(J: float, J1: float, beta: float, tree):
    params = ModelParams(J=J, J1=J1, beta=float(beta))
    fps = ti_fixed_points(params)
    rep3 = free_energy(params, "u3")
    rep1 = free_energy(params, "u1")
    mass_plus = None
    if tree is not None and fps.regime == REGIME_THREE:
        bf = exact_oracle.BoundaryField.constant(tree, fps.h3)
        mass_plus = exact_oracle.plus_minus_mass(tree, params, bf)[0]
    return (
        float(beta),
        fps.regime,
        fps.u1,
        fps.u3,
        rep3.f_extrapolated,
        rep1.f_extrapolated,
        abs(rep3.f_extrapolated - rep1.f_extrapolated),
        ground_states.root_magnetization(fps.u3),
        mass_plus,
    )


_SWEEP_COLUMNS = ["beta", "regime", "u1", "u3", "F_u3", "F_u1", "F_sym_check",
                  "root_prob", "mass_plus"]


def cmd_beta_sweep(args: argparse.Namespace) -> int:
    grids = _parse_grid_specs(args.grid)
    if args.J is None or args.J1 is None:
        raise UsageError("beta-sweep requires --J and --J1")
    betas = _grid(grids, "beta")
    tree = None
    if args.depth <= exact_oracle.FULL_ENUM_DEPTH_CAP:
        tree = build_tree(args.depth, "full")
    else:
        print(f"warning: depth {args.depth} beyond the enumeration cap; "
              f"mass_plus column left empty", file=sys.stderr)

    rows = [_beta_sweep_row(args.J, args.J1, b, tree) for b in betas]
    if args.fmt == "json":
        text = _json_doc("beta-sweep", {
            "params": {"J": args.J, "J1": args.J1, "depth": args.depth},
            "rows": [dict(zip(_SWEEP_COLUMNS, r)) for r in rows],
        })
    else:
        comments = [
            f"beta-sweep J={_fmt(args.J)} J1={_fmt(args.J1)} depth={args.depth}",
            " ".join(_SWEEP_COLUMNS),
        ]
        text = _csv(_SWEEP_COLUMNS, rows, comments)
    _write_output(args.out, text)
    return EXIT_OK


def cmd_ground_state(args: argparse.Namespace) -> int:
    grids = _parse_grid_specs(args.grid)
    if args.J is None or args.J1 is None:
        raise UsageError("ground-state requires --J and --J1")
    betas = _grid(grids, "beta")
    rows = ground_states.ground_state_scan(args.J, args.J1, betas, depth=args.depth)
    cols = ["beta", "regime", "u1", "u3", "root_prob", "mass_plus", "mass_minus"]
    data = [(r.beta, r.regime, r.u1, r.u3, r.root_prob, r.mass_plus, r.mass_minus)
            for r in rows]
    if args.fmt == "json":
        text = _json_doc("ground-state", {
            "params": {"J": args.J, "J1": args.J1, "depth": args.depth},
            "rows": [dict(zip(cols, r)) for r in data],
        })
    else:
        text = _csv(cols, data, [f"ground-state J={_fmt(args.J)} J1={_fmt(args.J1)} depth={args.depth}"])
    _write_output(args.out, text)
    return EXIT_OK


def cmd_lemma_check(args: argparse.Namespace) -> int:
    res = ground_states.exhaustive_lemma_check(args.depth)
    payload = {
        "depth": res.depth,
        "config_count": res.config_count,
        "config_violations": res.config_violations,
        "config_witness": res.config_witness,
        "max_stat_gap": res.max_stat_gap,
        "stat_gap_bound": res.stat_gap_bound,
        "subset_count": res.subset_count,
        "subset_violations": res.subset_violations,
        "subset_witness": sorted(res.subset_witness) if res.subset_witness else None,
        "clean": res.clean,
    }
    if args.fmt == "json":
        text = _json_doc("lemma-check", payload)
    else:
        keys = list(payload)
        row = [payload[k] if not isinstance(payload[k], list) else
               ";".join(str(v) for v in payload[k]) for k in keys]
        text = _csv(keys, [row])
    _write_output(args.out, text)
    return EXIT_OK if res.clean else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# verify


def _in_regime_params(rng) -> ModelParams:
    theta1 = float(rng.uniform(1.9, 3.2))
    theta_c = 2.0 * theta1 / (theta1 * theta1 - 3.0)
    theta = theta_c + float(rng.uniform(0.5, 3.0))
    return ModelParams.from_thetas(theta, theta1)


def _check_level_factor_identity(rng, draws=1000):
    bj, bj1 = rng.uniform(-10, 10, (2, draws))
    hy, hz = rng.uniform(-10, 10, (2, draws))
    err = 0.0
    for j, j1, y, z in zip(bj, bj1, hy, hz):
        p = ModelParams(J=j, J1=j1, beta=1.0)
        w_up, w_dn = pair_log_weights(p, y, z)
        rate = level_log_factor(p, y, z)
        err = max(err, abs(math.exp(rate - 0.5 * (w_up + w_dn)) - 1.0))
    return {"check_name": "level_factor_identity", "draws": draws, "max_error": err,
            "tol": 1e-10}


def _check_theta_form_match(rng, draws=400):
    err = 0.0
    for _ in range(draws):
        bj, bj1 = rng.uniform(-5, 5, 2)
        hy, hz = rng.uniform(-5, 5, 2)
        p = ModelParams(J=bj, J1=bj1, beta=1.0)
        th, th1 = p.theta_exp, p.theta1_exp
        uy, uz = math.exp(2 * hy), math.exp(2 * hz)
        num = th1 * th1 * th * uy * uz + th1 * (uy + uz) + th
        den = th * uy * uz + th1 * (uy + uz) + th1 * th1 * th
        err = max(err, abs(0.5 * math.log(num / den) - child_to_parent(p, hy, hz)))
    return {"check_name": "theta_form_match", "draws": draws, "max_error": err,
            "tol": 1e-12}


def _check_kernel_symmetries(rng, draws=1000):
    err = 0.0
    for _ in range(draws):
        b, x, y = rng.uniform(-20, 20, 3)
        p = ModelParams(J=b, J1=1.0, beta=1.0)
        err = max(err, abs(log_cosh_even(b, x) - log_cosh_even(b, -x)))
        err = max(err, abs(effective_field(x, p) + effective_field(-x, p)))
        err = max(err, abs(log_cosh_cross(b, -x, -y) - log_cosh_cross(b, y, x)))
    return {"check_name": "kernel_symmetries", "draws": draws, "max_error": err,
            "tol": 1e-12}


def _check_recursion_vs_enumeration(rng, draws=3):
    err = 0.0
    cases = [(2,), (2,), (3,)][:draws]
    for (depth,) in cases:
        params = _in_regime_params(rng)
        fps = ti_fixed_points(params)
        tree = build_tree(depth, "full")
        fields = propagate_inward(tree, params, fps.h3)
        ln_oracle = exact_oracle.log_partition(tree, params, fields)
        ln_rec = log_partition_recursive(params, fields)
        err = max(err, abs(ln_rec - ln_oracle) / abs(ln_oracle))
    return {"check_name": "recursion_vs_enumeration", "draws": len(cases),
            "max_error": err, "tol": 1e-10}


def _check_consistency_propagated(rng, draws=3):
    err = 0.0
    tree = build_tree(2, "full")
    for _ in range(draws):
        params = _in_regime_params(rng)
        boundary = rng.uniform(-1.0, 1.0, tree.level_size(2))
        fields = propagate_inward(tree, params, boundary)
        err = max(err, exact_oracle.check_consistency(params, fields))
    return {"check_name": "consistency_propagated", "draws": draws, "max_error": err,
            "tol": 1e-12}


def _check_free_energy_symmetry(rng, draws=10):
    err = 0.0
    for _ in range(draws):
        params = _in_regime_params(rng)
        r3 = free_energy(params, "u3")
        r1 = free_energy(params, "u1")
        err = max(err, abs(r3.f_extrapolated - r1.f_extrapolated))
    return {"check_name": "free_energy_symmetry", "draws": draws, "max_error": err,
            "tol": 1e-10}


def run_verification(seed: int = 0, inject_failure: bool = False) -> dict:
    """Run every cross-route identity check; pure function of the seed."""
    checks = []
    for fn in (
        _check_level_factor_identity,
        _check_theta_form_match,
        _check_kernel_symmetries,
        _check_recursion_vs_enumeration,
        _check_consistency_propagated,
        _check_free_energy_symmetry,
    ):
        checks.append(fn(np.random.default_rng(seed)))
    if inject_failure:
        checks[0] = dict(checks[0])
        checks[0]["max_error"] = checks[0]["max_error"] + 1e-6
        checks[0]["check_name"] = checks[0]["check_name"] + "_injected"
    for c in checks:
        c["pass"] = bool(c["max_error"] < c["tol"])
    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "injected_failure": inject_failure,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(seed=args.seed, inject_failure=args.inject_failure)
    _write_output(args.out, json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n")
    if not report["all_pass"]:
        failing = [c["check_name"] for c in report["checks"] if not c["pass"]]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbtree",
        description="Exact solver for the competing-coupling spin model on the "
                    "order-2 Cayley tree",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, point=False, grid=False, depth=None, fmt=True):
        p.add_argument("--out", default=None, help="output path ('-' or omit for stdout)")
        if fmt:
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        if point:
            p.add_argument("--J", type=float, default=None)
            p.add_argument("--J1", type=float, default=None)
            p.add_argument("--beta", type=float, default=None)
            p.add_argument("--theta", type=float, default=None)
            p.add_argument("--theta1", type=float, default=None)
        if grid:
            p.add_argument("--grid", action="append", default=[],
                           metavar="AXIS=START:STOP:COUNT")
        if depth is not None:
            p.add_argument("--depth", type=int, default=depth)

    p = sub.add_parser("fixed-points", help="constant-field fixed points at one point")
    add_common(p, point=True)

    p = sub.add_parser("phase-diagram", help="regime classification over a theta grid")
    add_common(p, grid=True)
    p.add_argument("--curve-out", default=None,
                   help="critical-curve output path (default: derived from --out)")

    p = sub.add_parser("free-energy", help="free-energy report for one branch")
    add_common(p, point=True)
    p.add_argument("--branch", choices=("u1", "u2", "u3"), default="u3")
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--experimental-closed-form", action="store_true",
                   help="attach the experimental zero-temperature closed forms")

    p = sub.add_parser("beta-sweep", help="fixed couplings, beta grid")
    add_common(p, point=True, grid=True, depth=2)

    p = sub.add_parser("ground-state", help="extreme-configuration masses over a beta grid")
    add_common(p, point=True, grid=True, depth=2)

    p = sub.add_parser("lemma-check", help="exhaustive combinatorial bound sweep")
    add_common(p, depth=2)
    p.set_defaults(fmt="json")  # report-style command

    p = sub.add_parser("verify", help="run all cross-route identity checks")
    add_common(p, fmt=False)  # the report is always JSON
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-failure", action="store_true",
                   help="test hook: perturb one check to force a failure")
    return parser


_COMMANDS = {
    "fixed-points": cmd_fixed_points,
    "phase-diagram": cmd_phase_diagram,
    "free-energy": cmd_free_energy,
    "beta-sweep": cmd_beta_sweep,
    "ground-state": cmd_ground_state,
    "lemma-check": cmd_lemma_check,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # Float overflow or division by zero on an extreme input: the input
        # is outside the range the computation handles, not a failed check.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
