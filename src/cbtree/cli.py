"""Command-line front end: sweeps, verification, machine-readable output.

Each command computes its result and returns it as a ``_Result``: the JSON
payload, the CSV tables with the path each one goes to, and the exit code.
``main`` hands that to one emitter, which writes either the JSON document
``{"schema", "command", **payload}`` or the tables; ``verify`` has no
tables, so its report is always that JSON document.  Report fields are
taken from the library's result dataclasses in their declaration order,
which is the CSV column order.  A table's JSON records are built only when
JSON is written.

Outputs are byte-reproducible: a CSV cell prints a float with 17
significant digits, a JSON document as its shortest round-trip ``repr``;
newlines are always ``\\n``, grid rows are computed and written in
grid order, and the ``verify`` report is a pure function of its seed.

Importing this module or building its parser loads no library module, no
numpy and no ``dataclasses``: each is a ``_lazy.LazyModule`` global, bound
to its module on first use, so a command loads only the modules it calls
(``fixed-points`` loads ``model`` and ``field_recursion``).

Exit codes: 0 success, 1 verification failure, 2 usage error (an input
outside the range the arithmetic handles, or an output path that cannot be
written, counts as one).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii

from ._lazy import LazyModule

# Bound on first use, so importing cli and building its parser load none of them.
dataclasses = LazyModule(globals(), "dataclasses", "dataclasses")
exact_oracle = LazyModule(globals(), "exact_oracle", "cbtree.exact_oracle")
fe = LazyModule(globals(), "fe", "cbtree.free_energy")
fr = LazyModule(globals(), "fr", "cbtree.field_recursion")
ground_states = LazyModule(globals(), "ground_states", "cbtree.ground_states")
model = LazyModule(globals(), "model", "cbtree.model")
np = LazyModule(globals(), "np", "numpy")
topology = LazyModule(globals(), "topology", "cbtree.topology")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

SCHEMA_VERSION = 7


class UsageError(Exception):
    pass


def _point_params(args: argparse.Namespace) -> model.ModelParams:
    coupling = [v is not None for v in (args.J, args.J1, args.beta)]
    theta_mode = [v is not None for v in (args.theta, args.theta1)]
    if all(coupling) and not any(theta_mode):
        return model.ModelParams(J=args.J, J1=args.J1, beta=args.beta)
    if all(theta_mode) and not any(coupling):
        return model.ModelParams.from_thetas(args.theta, args.theta1)
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
    if isinstance(x, list):
        return ";".join(str(v) for v in x)
    return _fmt(x)


def _parse_grid_specs(specs, axes) -> dict:
    """The ``--grid`` specs of a command that reads ``axes``, as grids by axis.

    Every spec is checked for its form and range before any is checked for
    an axis outside ``axes`` or one given twice.
    """
    parsed = []
    for spec in specs or ():
        try:
            name, rng = spec.split("=", 1)
            start_s, stop_s, count_s = rng.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
        except ValueError:
            raise UsageError(f"bad grid spec {spec!r}; expected name=start:stop:count") from None
        if count < 1:
            raise UsageError(f"empty grid {spec!r}")
        if not math.isfinite(stop - start):
            raise UsageError(f"grid {spec!r} needs finite endpoints a finite distance apart")
        if count > 1 and not stop > start:
            raise UsageError(f"grid {spec!r} is not strictly increasing")
        try:
            parsed.append((spec, name.strip(), np.linspace(start, stop, count)))
        except MemoryError:
            raise UsageError(f"grid {spec!r} has too many points to hold in memory") from None
    grids = {}
    for spec, name, grid in parsed:
        if name not in axes:
            raise UsageError(f"grid {spec!r} names an axis this command does not read; "
                             f"it reads {' and '.join(axes)}")
        if name in grids:
            raise UsageError(f"grid {spec!r} gives axis {name} a second time")
        grids[name] = grid
    return grids


def _fields(obj) -> dict:
    """A dataclass's fields by name in declaration order (a shallow copy)."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


class _Table:
    """Named columns and rows of cells; CSV text chunks, or JSON records on demand.

    ``rows`` and ``lines`` may be generators: only the output written reads
    them, once.  ``lines``, when given, yields the CSV rows as text in place
    of one ``_cell`` per cell of ``rows``.
    """

    def __init__(self, columns: list[str], rows: Iterable, comments: tuple[str, ...] = (),
                 lines: Iterable[str] | None = None):
        self.columns, self.rows, self.comments, self.lines = columns, rows, comments, lines

    @classmethod
    def of_record(cls, record: dict) -> "_Table":
        return cls(list(record), [list(record.values())])

    def csv(self) -> Iterator[str]:
        yield "".join(f"# {line}\n" for line in self.comments) + ",".join(self.columns) + "\n"
        if self.lines is not None:
            yield from self.lines
        else:
            yield "".join(",".join(map(_cell, row)) + "\n" for row in self.rows)


class _Result:
    """What a command produced: its JSON payload, its CSV tables as (path,
    table) pairs, and its exit code."""

    def __init__(self, payload: dict, tables: list, code: int = EXIT_OK):
        self.payload, self.tables, self.code = payload, tables, code


def _json_default(obj):
    if isinstance(obj, _Table):
        return [dict(zip(obj.columns, row)) for row in obj.rows]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
    default=_json_default)``, built directly: with ``indent`` set, ``json``
    runs its pure-Python encoder, which yields one chunk per token."""
    if isinstance(obj, float):  # the most common leaf; no str, bool or int is one
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        brackets, items = "[]", [_json(v, inner) for v in obj]
    elif isinstance(obj, dict):
        brackets, items = "{}", [encode_basestring_ascii(k) + ": " + _json(v, inner)
                                 for k, v in sorted(obj.items())]
    else:
        return _json(_json_default(obj), indent)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _write_output(path: str | None, chunks: Iterable[str]) -> None:
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _emit(args: argparse.Namespace, result: _Result) -> int:
    if args.fmt == "json":
        doc = {"schema": SCHEMA_VERSION, "command": args.command, **result.payload}
        _write_output(args.out, [_json(doc) + "\n"])
    else:
        for path, table in result.tables:
            _write_output(path, table.csv())
    return result.code


# ---------------------------------------------------------------------------
# commands


def cmd_fixed_points(args: argparse.Namespace) -> _Result:
    params = _point_params(args)
    fps, (residual_u1, _, residual_u3) = fr._ti_fixed_points_checked(params)
    row = {
        **_fields(params),
        "theta": params.theta_exp,
        "theta1": params.theta1_exp,
        **_fields(fps),
        "h1": fps.h1,
        "h3": fps.h3,
        "residual_u1": residual_u1,
        "residual_u3": residual_u3,
    }
    return _Result({"result": row}, [(args.out, _Table.of_record(row))])


def _grid_rows(theta1s, thetas, regime, u1, u3):
    """Phase-diagram row tuples, theta1-major; the rows share one float per axis value."""
    for t1, tags, a, b in zip(theta1s, regime, u1, u3):
        yield from zip(itertools.repeat(t1), thetas, map(fr.REGIMES.__getitem__, tags), a, b)


def _grid_lines(theta1s, thetas, regime, u1, u3):
    """Phase-diagram CSV rows, one text chunk per theta1 filled by one ``%``;
    each axis value is formatted once, in the bytes ``_cell`` gives it."""
    # A formatted float holds no %, so the axis cells go into the template.
    tails = [f",{_fmt(t)},%s,%.17g,%.17g\n" for t in thetas]
    for t1, tags, a, b in zip(theta1s, regime, u1, u3):
        t1_cell = _fmt(t1)
        template = t1_cell + t1_cell.join(tails)
        yield template % tuple(itertools.chain.from_iterable(
            zip(map(fr.REGIMES.__getitem__, tags), a, b)))


def cmd_phase_diagram(args: argparse.Namespace) -> _Result:
    grids = _parse_grid_specs(args.grid, ("theta1", "theta"))
    theta1_grid = _grid(grids, "theta1")
    theta_grid = _grid(grids, "theta")
    curve_out = args.curve_out
    if curve_out is not None and args.fmt == "json":
        raise UsageError("--curve-out takes the CSV curve; with --format json the curve "
                         "is in the JSON document")
    if curve_out is None and args.out not in (None, "-"):
        curve_out = args.out + ".curve"

    regime, u1, u3 = fr.ti_fixed_points_grid(theta1_grid, theta_grid)
    cells = (theta1_grid.tolist(), theta_grid.tolist(), regime.tolist(), u1.tolist(), u3.tolist())

    pole = math.sqrt(3.0)
    curve_points = [float(t1) for t1 in theta1_grid if t1 > pole + fr.CURVE_POLE_TOL]
    skipped = len(theta1_grid) - len(curve_points)
    if skipped:
        print(f"warning: skipped {skipped} theta1 grid points at or below the "
              f"sqrt(3) pole of the critical curve", file=sys.stderr)
    grid = _Table(["theta1", "theta", "regime", "u1", "u3"], _grid_rows(*cells),
                  lines=_grid_lines(*cells))
    curve = _Table(["theta1", "theta_c", "j1_beta", "j_beta"], fr.critical_curve(curve_points))
    return _Result({"rows": grid, "curve": curve}, [(args.out, grid), (curve_out, curve)])


def cmd_free_energy(args: argparse.Namespace) -> _Result:
    if args.experimental_closed_form and args.fmt != "json":
        raise UsageError("--experimental-closed-form attaches the asymptote to the JSON "
                         "document; it needs --format json")
    params = _point_params(args)
    n_max = fe.N_MAX if args.n_max is None else args.n_max
    rep = fe.free_energy(params, branch=args.branch, n_max=n_max)
    payload = {"params": _fields(params), **_fields(rep)}
    if args.experimental_closed_form:
        payload["asymptote"] = _fields(fe.zero_temperature_limit(params.J, params.J1))
    if args.fmt == "json":
        return _Result(payload, [])
    table = _Table(
        ["n", "ln_z", "f_n"],
        list(zip(range(1, len(rep.ln_z) + 1), rep.ln_z, rep.f_n)),
        (f"free-energy J={_fmt(params.J)} J1={_fmt(params.J1)} beta={_fmt(params.beta)} "
         f"branch={rep.branch}",
         f"f_const_field={_fmt(rep.f_const_field)}"),
    )
    return _Result(payload, [(args.out, table)])


def _beta_scan(args: argparse.Namespace) -> tuple[np.ndarray, dict, str]:
    """Beta grid, ``params`` block and CSV header line of a beta scan command."""
    grids = _parse_grid_specs(args.grid, ("beta",))
    if args.J is None or args.J1 is None:
        raise UsageError(f"{args.command} requires --J and --J1")
    header = f"{args.command} J={_fmt(args.J)} J1={_fmt(args.J1)} depth={args.depth}"
    return _grid(grids, "beta"), {"J": args.J, "J1": args.J1, "depth": args.depth}, header


_SWEEP_COLUMNS = ["beta", "regime", "u1", "u3", "F_u3", "F_u1", "F_sym_check",
                  "root_prob", "mass_plus"]


def cmd_beta_sweep(args: argparse.Namespace) -> _Result:
    betas, params, header = _beta_scan(args)
    tree = topology.build_tree(args.depth, "full")  # refuses a depth outside 0..DEPTH_CAP
    if args.depth > exact_oracle.FULL_ENUM_DEPTH_CAP:
        tree = None
        print(f"warning: depth {args.depth} beyond the enumeration cap; "
              f"mass_plus column left empty", file=sys.stderr)

    regime, u1, u3 = fr.ti_fixed_points_betas(args.J, args.J1, betas)
    # F is elementwise in its points, so the u3 rows and the u1 rows share one call.
    f3, f1 = fe.free_energy_betas(args.J, args.J1, np.tile(betas, 2),
                                  np.concatenate([u3, u1])).reshape(2, -1)
    three = np.flatnonzero(regime == fr.REGIMES.index(fr.REGIME_THREE))
    mass_plus = {}
    if tree is not None and three.size:
        h3 = [0.5 * math.log(u) for u in u3[three].tolist()]
        plus, _ = exact_oracle.plus_minus_masses(tree, args.J, args.J1, betas[three], h3)
        mass_plus = dict(zip(three.tolist(), plus.tolist()))
    rows = []
    for k, (beta, tag, u1_b, u3_b, f3_b, f1_b) in enumerate(zip(
            betas.tolist(), regime.tolist(), u1.tolist(), u3.tolist(), f3.tolist(), f1.tolist())):
        rows.append((beta, fr.REGIMES[tag], u1_b, u3_b, f3_b, f1_b, abs(f3_b - f1_b),
                     ground_states.root_magnetization(u3_b), mass_plus.get(k)))
    table = _Table(_SWEEP_COLUMNS, rows, (header, " ".join(_SWEEP_COLUMNS)))
    return _Result({"params": params, "rows": table}, [(args.out, table)])


def cmd_ground_state(args: argparse.Namespace) -> _Result:
    betas, params, header = _beta_scan(args)
    rows = ground_states.ground_state_scan(args.J, args.J1, betas, depth=args.depth)
    cols = [f.name for f in dataclasses.fields(ground_states.GroundScanRow)]
    table = _Table(cols, [[getattr(r, c) for c in cols] for r in rows], (header,))
    return _Result({"params": params, "rows": table}, [(args.out, table)])


def cmd_lemma_check(args: argparse.Namespace) -> _Result:
    res = ground_states.exhaustive_lemma_check(args.depth)
    payload = {**_fields(res), "clean": res.clean}
    payload["subset_witness"] = sorted(res.subset_witness) if res.subset_witness else None
    code = EXIT_OK if res.clean else EXIT_CHECK_FAILED
    return _Result(payload, [(args.out, _Table.of_record(payload))], code)


# ---------------------------------------------------------------------------
# verify


def _in_regime_params(rng) -> model.ModelParams:
    theta1 = float(rng.uniform(1.9, 3.2))
    theta_c = 2.0 * theta1 / (theta1 * theta1 - 3.0)
    theta = theta_c + float(rng.uniform(0.5, 3.0))
    return model.ModelParams.from_thetas(theta, theta1)


def _level_factor_errors(rng, draws):
    bj, bj1 = rng.uniform(-10, 10, (2, draws))
    hy, hz = rng.uniform(-10, 10, (2, draws))
    # beta = 1: beta*J is J itself and 2*beta*J1 is 2*J1.
    levels = fe._level_log_factor(bj, bj1, hy, hz)
    w_up, w_dn = fr._pair_log_weights(2.0 * bj1, bj, hy, hz, fr._lse4_array)
    return np.abs(np.exp(levels - 0.5 * (w_up + w_dn)) - 1.0).tolist()


def _theta_form_errors(rng, draws):
    bj, bj1, hy, hz = rng.uniform(-5, 5, (draws, 4)).T  # four doubles per draw
    th, th1 = np.exp(2.0 * bj), np.exp(2.0 * bj1)
    uy, uz = np.exp(2.0 * hy), np.exp(2.0 * hz)
    num = th1 * th1 * th * uy * uz + th1 * (uy + uz) + th
    den = th * uy * uz + th1 * (uy + uz) + th1 * th1 * th
    w_up, w_dn = fr._pair_log_weights(2.0 * bj1, bj, hy, hz, fr._lse4_array)
    return np.abs(0.5 * np.log(num / den) - 0.5 * (w_up - w_dn)).tolist()


def _recursion_errors(rng, draws):
    for depth in (2, 2, 3)[:draws]:
        params = _in_regime_params(rng)
        tree = topology.build_tree(depth, "full")
        h3 = fr.ti_fixed_points(params).h3
        # The enumerated table, not the tree DP that log_partition reads.
        ln_oracle = exact_oracle.enumerated_count_table(tree).log_partition(params, h3)
        ln_rec = fe.log_partition_recursive(params, fr.propagate_inward(tree, params, h3))
        yield abs(ln_rec - ln_oracle) / abs(ln_oracle)


def _consistency_errors(rng, draws):
    tree = topology.build_tree(2, "full")
    for _ in range(draws):
        params = _in_regime_params(rng)
        boundary = rng.uniform(-1.0, 1.0, tree.level_size(2))
        yield exact_oracle.check_consistency(params, fr.propagate_inward(tree, params, boundary))


def _free_energy_symmetry_errors(rng, draws):
    params = [_in_regime_params(rng) for _ in range(draws)]
    fps = [fr.ti_fixed_points(p) for p in params]
    J, J1, beta = np.array([(p.J, p.J1, p.beta) for p in params]).T
    f3 = fe.free_energy_betas(J, J1, beta, [f.u3 for f in fps])
    f1 = fe.free_energy_betas(J, J1, beta, [f.u1 for f in fps])
    return np.abs(f3 - f1).tolist()


# (check_name, draws, tol, per-draw errors of rng and draws)
_CHECKS = (
    ("level_factor_identity", 1000, 1e-10, _level_factor_errors),
    ("theta_form_match", 400, 1e-12, _theta_form_errors),
    ("recursion_vs_enumeration", 3, 1e-10, _recursion_errors),
    ("consistency_propagated", 3, 1e-12, _consistency_errors),
    ("free_energy_symmetry", 10, 1e-10, _free_energy_symmetry_errors),
)


def run_verification(seed: int = 0) -> dict:
    """Run the cross-route identity checks; a pure function of the seed.

    Each check draws from a fresh ``default_rng(seed)`` and compares two
    routes: level factor and child-pair weights, field map and its theta
    form, telescoped ln Z and enumeration, propagated fields and enumerated
    marginals, F(u3) and F(u1).  The first two checks run both routes over
    all their draws as numpy arrays, through the array kernels that the
    sweeps and ``propagate_inward`` use (``_level_log_factor`` and
    ``_pair_log_weights``).  The last solves each draw with the scalar
    ``ti_fixed_points`` and takes F(u3) and F(u1) of all its draws from
    ``free_energy_betas`` with per-draw couplings, bit-identical to
    ``free_energy``'s ``f_const_field`` per draw; the middle two go per
    draw through the scalar faces.  An error that is NaN or infinite on any
    draw fails its check with ``max_error`` None; otherwise a check passes
    when its largest error is below ``tol``.
    """
    checks = []
    for name, draws, tol, errors in _CHECKS:
        errs = list(errors(np.random.default_rng(seed), draws))
        worst = max(errs) if all(map(math.isfinite, errs)) else None
        checks.append({"check_name": name, "draws": len(errs), "max_error": worst,
                       "tol": tol, "pass": worst is not None and bool(worst < tol)})
    return {
        "seed": seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


def cmd_verify(args: argparse.Namespace) -> _Result:
    report = run_verification(seed=args.seed)
    if not report["all_pass"]:
        failing = [c["check_name"] for c in report["checks"] if not c["pass"]]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
    return _Result(report, [], EXIT_OK if report["all_pass"] else EXIT_CHECK_FAILED)


# ---------------------------------------------------------------------------
# argument plumbing


@functools.lru_cache(maxsize=None)  # parse_args copies list defaults, so calls share none
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each command's parser by name."""
    parser = argparse.ArgumentParser(
        prog="cbtree",
        description="Exact solver for the competing-coupling spin model on the "
                    "order-2 Cayley tree",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, point=(), grid=False, depth=None, fmt=True):
        p.add_argument("--out", default=None, help="output path ('-' or omit for stdout)")
        if fmt:
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        for option in point:
            p.add_argument(option, type=float, default=None)
        if grid:
            p.add_argument("--grid", action="append", default=[],
                           metavar="AXIS=START:STOP:COUNT")
        if depth is not None:
            p.add_argument("--depth", type=int, default=depth)

    p = sub.add_parser("fixed-points", help="constant-field fixed points at one point")
    add_common(p, point=_NUMERIC_OPTIONS)

    p = sub.add_parser("phase-diagram", help="regime classification over a theta grid")
    add_common(p, grid=True)
    p.add_argument("--curve-out", default=None,
                   help="critical-curve output path (default: derived from --out)")

    p = sub.add_parser("free-energy", help="free-energy report for one branch")
    add_common(p, point=_NUMERIC_OPTIONS)
    p.add_argument("--branch", choices=("u1", "u2", "u3"), default="u3")
    p.add_argument("--n-max", type=int, default=None)  # free_energy.N_MAX at run time
    p.add_argument("--experimental-closed-form", action="store_true",
                   help="attach the experimental zero-temperature closed forms")

    p = sub.add_parser("beta-sweep", help="fixed couplings, beta grid")
    add_common(p, point=_COUPLING_OPTIONS, grid=True, depth=2)

    p = sub.add_parser("ground-state", help="extreme-configuration masses over a beta grid")
    add_common(p, point=_COUPLING_OPTIONS, grid=True, depth=2)

    p = sub.add_parser("lemma-check", help="exhaustive combinatorial bound sweep")
    add_common(p, depth=2)
    p.set_defaults(fmt="json")  # report-style command

    p = sub.add_parser("verify", help="run all cross-route identity checks")
    add_common(p, fmt=False)
    p.set_defaults(fmt="json")  # the report is always JSON
    p.add_argument("--seed", type=int, default=0)
    return parser, sub.choices


# A point is (--J --J1 --beta) or (--theta --theta1); the beta scans take the
# couplings alone.  argparse reads "-1e-3" as an option, not a value, since
# its negative-number pattern has no exponent; these options take the next
# token as their value when it starts with "-" and parses as a float.
_COUPLING_OPTIONS = ("--J", "--J1")
_NUMERIC_OPTIONS = (*_COUPLING_OPTIONS, "--beta", "--theta", "--theta1")


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_numeric_values(argv: list[str]) -> list[str]:
    """Spell ``--J -1e-3`` as ``--J=-1e-3`` for the numeric options."""
    out = []
    for token in argv:
        if out and out[-1] in _NUMERIC_OPTIONS and token.startswith("-") and _is_float(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _parse_simple(parser: argparse.ArgumentParser, tokens: list[str]) -> argparse.Namespace | None:
    """``parser.parse_args(tokens)`` if each token is ``--opt=value``, ``--opt
    value`` (a non-empty value not starting with "-") or a bare ``store_true``
    flag, with ``--opt`` an exact long option of ``parser`` and the value
    passing its ``type`` and ``choices``; otherwise None, for argparse to
    parse and report.  List defaults are copied, so calls share no list.
    It reads private argparse names (``_defaults``, ``_actions``,
    ``_option_string_actions``, ``_Store*Action``, ``_AppendAction``), so
    rerun ``TestArgvPass`` on any new Python; its grammar agrees with
    ``parse_known_args`` on 3.10.13, 3.11.7, 3.12.1 and 3.13.0."""
    values = {**parser._defaults, **{a.dest: list(a.default) if isinstance(a.default, list)
                                     else a.default for a in parser._actions
                                     if a.default is not argparse.SUPPRESS}}
    tokens = iter(tokens)
    for token in tokens:
        name, eq, value = token.partition("=")
        action = parser._option_string_actions.get(name) if name.startswith("--") else None
        if isinstance(action, argparse._StoreTrueAction) and not eq:
            values[action.dest] = True
            continue
        if not eq:
            value = next(tokens, "")
        if (not isinstance(action, (argparse._StoreAction, argparse._AppendAction))
                or action.nargs is not None or not value or value[0] == "-" and not eq):
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        if isinstance(action, argparse._AppendAction):
            value = [*(values[action.dest] or ()), value]
        values[action.dest] = value
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    argv = _join_numeric_values(argv)
    extra = None
    if argv and argv[0] in commands:
        args = _parse_simple(commands[argv[0]], argv[1:])
        if args is None:
            # The command's parser alone, as the top-level parser would call it.
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
        args.command = argv[0]
    else:
        args, extra = parser.parse_known_args(argv)
    if extra:
        # argparse lists the leftovers before the command first, then the
        # command's own, which its parser finds again in the tokens after it.
        cmd_parser = commands[args.command]
        own = cmd_parser.parse_known_args(argv[argv.index(args.command) + 1:])[1]
        if len(own) < len(extra):
            parser.error(f"unrecognized arguments: {' '.join(extra[:len(extra) - len(own)])}")
        cmd_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    # Looked up at call time, so a rebinding of a cmd_* attribute is used.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return _emit(args, command(args))
    except (UsageError, ValueError, OSError) as exc:
        # OSError: an output path that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # Float overflow or division by zero on an extreme input: the input
        # is outside the range the computation handles, not a failed check.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
