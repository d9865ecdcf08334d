"""Command-line entry point.

Subcommands: commutator, quantise, preserve, bks (classify | pair), evolve,
bs-count, verify-paper.  Exit codes: 0 success, 1 input error,
2 verification failure, 3 flagged discrepancies under --strict.

``build_parser()`` is the one statement of every subcommand's options.
Option names match in full only, and a token that starts with a single '-'
(the help flag '-h' aside) is the value of the option just before it, so
'--grid -10:10:2048' and '--csv -out.csv' parse as written.

All numeric parameters are echoed into CSV headers (comment lines starting
with '#') so outputs are reproducible byte for byte.

The exact subcommands load neither numpy nor scipy: each numeric module is
imported inside the subcommand that uses it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import stat
import sys
from fractions import Fraction
from typing import Iterable

from .exprparse import load_problem, parse_poly
from .polarisation import CASE_TAGS, _grid_connection, _monomial_cells, preserves
from .prequant import FormalOperator, commutator, pullback_quantise, quantise
from .symcore import EXP_LIMIT, ChartSpec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_FLAGS = 3
BETA_SAMPLES_MAX = 10**6  # bks pair --beta: samples in [start, stop + step * 1e-9] at most
CLASSIFY_ROWS_MAX = 10**5  # bks classify --m-max: rows of the term table at most
GRID_CELLS_MAX = 10**6  # preserve --grid m,n: (m + 1) * (n + 1) monomials at most
LEVELS_MAX = 10**6  # bs-count --E lo..hi: hi - lo + 1 rows at most
POINTS_MAX = 10**7  # bs-count --points: sum of E^2 - 1 over the levels at most
NODES_MAX = 10**6  # evolve --grid: nodes at most
EVOLVE_ROWS_MAX = 10**6  # evolve --steps: steps + 1 CSV rows at most
SNAPSHOT_BYTES_MAX = 10**8  # evolve --snapshots: 16 * nodes bytes per kept state at most


class CliError(Exception):
    """User input error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _operator_json(op: FormalOperator) -> dict:
    terms = {}
    for idx, coeff in sorted(op.terms.items()):
        terms[",".join(map(str, idx))] = str(coeff)
    return {"text": str(op), "order": op.order(), "terms": terms}


def _emit(lines: Iterable[str], path: str | None):
    """Write each line as it is drawn, to ``path`` or to stdout."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        for line in lines:
            fh.write(line + "\n")


def _check_writable(**paths: str | None) -> None:
    """Raise unless each ``option=path`` opens for writing, to a file of its own; change no file.

    Each path opens without truncation and closes again, and a file the check created is
    removed, so outputs open (and truncate) only once all of them can.  Two options that
    open one regular file (one device and inode) are a CliError naming both.
    """
    created, owners = [], {}
    try:
        for option, path in [(option, path) for option, path in paths.items() if path]:
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
                created.append(path)
            except FileExistsError:
                fd = os.open(path, os.O_WRONLY)
            st = os.fstat(fd)
            os.close(fd)
            file = (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else option
            if owners.setdefault(file, option) != option:
                raise CliError(f"--{owners[file]} and --{option} name the same file {path}")
    finally:
        for path in created:
            os.remove(path)


# -- subcommands ---------------------------------------------------------------


def _quantise_all(args, *exprs: str) -> list[FormalOperator]:
    """Parse observables on the problem's observable chart and quantise them.

    With a ``pullback`` block the observables live on its target chart and are
    quantised through the pulled-back connection.
    """
    problem = load_problem(args.problem or {})
    setup = problem.pullback
    chart = problem.chart if setup is None else setup.map.target
    polys = [parse_poly(e, chart) for e in exprs]
    if setup is None:
        return [quantise(A, problem.connection) for A in polys]
    return [pullback_quantise(A, setup) for A in polys]


def cmd_commutator(args) -> int:
    op = commutator(*_quantise_all(args, args.a, args.b))
    if args.formal:  # divide every coefficient by -i*hbar
        op = FormalOperator(op.chart, {idx: c.div_minus_i_hbar() for idx, c in op.terms.items()})
    return _print_operator(op, args.json)


def cmd_quantise(args) -> int:
    (op,) = _quantise_all(args, args.observable)
    return _print_operator(op, args.json)


def _print_operator(op: FormalOperator, as_json: bool) -> int:
    print(json.dumps(_operator_json(op), sort_keys=True) if as_json else str(op))
    return EXIT_OK


def cmd_preserve(args) -> int:
    if args.grid:
        if args.problem:
            raise CliError("--grid uses the built-in a1/b1 chart and cannot take --problem")
        if args.observable:
            raise CliError("--grid tabulates monomials and cannot take --observable")
        try:
            m_max, n_max = (int(x) for x in args.grid.split(","))
            if m_max < 0 or n_max < 0:
                raise ValueError
        except ValueError:
            raise CliError("--grid expects 'm,n' with non-negative integers") from None
        if (m_max + 1) * (n_max + 1) > GRID_CELLS_MAX:
            raise CliError(f"--grid gives more than {GRID_CELLS_MAX} cells; use smaller bounds")
        if max(m_max, n_max) >= EXP_LIMIT:
            raise CliError(f"--grid exponents must be below {EXP_LIMIT}")
        deformation = None
        chart = ChartSpec((("a1", "b1"),))
        if args.deformation:
            deformation = parse_poly(args.deformation, chart)
        case = args.case or "standard"
        try:
            conn = _grid_connection(deformation, case, chart)
        except ValueError as exc:  # every such error is about the case and its deformation
            raise CliError(f"--case {case}: {exc}") from None
        header = [f"# case={case} deformation={args.deformation or '0'}"]
        header.append("m,n,preserves,residual_count")
        rows = (
            f"{m},{n},{str(rep.preserves).lower()},{len(rep.residuals)}"
            for (m, n), rep in _monomial_cells(m_max, n_max, conn)
        )
        _emit(itertools.chain(header, rows), args.csv)  # each row written as its cell is done
        return EXIT_OK
    if not args.observable:
        raise CliError("preserve needs --observable or --grid")
    for flag in ("csv", "case", "deformation"):
        if getattr(args, flag) is not None:
            raise CliError(f"--{flag} applies only to --grid")
    problem = load_problem(args.problem or {})
    A = parse_poly(args.observable, problem.chart)
    rep = preserves(A, problem.connection)
    payload = {
        "observable": str(rep.observable),
        "preserves": rep.preserves,
        "residuals": [
            {"flat_index": i, "derivative": list(k), "coefficient": str(c)}
            for i, k, c in rep.residuals
        ],
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _parse_range(spec: str) -> list[float]:
    """--beta: 'start:stop:step' inclusive-start float grid; bare number means one value."""
    try:
        parts = [float(x) for x in spec.split(":")]
        if not all(map(math.isfinite, parts)):
            raise ValueError
        if len(parts) == 1:
            return parts
        start, stop, step = parts
        if step <= 0:
            raise ValueError
    except ValueError:
        raise CliError(
            "--beta expects a finite number or 'start:stop:step' with step > 0"
        ) from None
    # a sample up to 1e-9 of a step beyond stop counts; each is rounded 10 digits below the
    # step's leading digit, which drops the float error of start + k*step on any scale
    span = (stop - start) / step + 1e-9
    if span >= BETA_SAMPLES_MAX:
        raise CliError(f"--beta gives more than {BETA_SAMPLES_MAX} samples; use a larger step")
    count = math.floor(max(span, -1)) + 1  # 0 when stop lies before start, even by -inf
    digits = 10 - math.floor(math.log10(step))
    return [round(start + k * step, digits) for k in range(count)]


def cmd_bks_classify(args) -> int:
    from . import bks

    try:
        lam = Fraction(args.lam)
    except (ValueError, ZeroDivisionError):
        raise CliError("--lam expects a rational such as 1 or 1/2") from None
    if lam == 0:
        raise CliError("--lam must be nonzero")
    d = bks.DeformationSpec(args.n, lam, args.hbar)
    if bks.classify_rows(args.n, args.m_max) > CLASSIFY_ROWS_MAX:  # m_max < 0: raised below
        raise CliError(f"--m-max gives more than {CLASSIFY_ROWS_MAX} rows; use a smaller bound")
    try:
        if float(lam) / (2.0 * args.hbar) == 0.0:  # the phase parameter of every mu moment
            raise CliError(f"--lam {args.lam}: lam/(2*hbar) underflows to 0 at "
                           f"hbar = {_fmt(args.hbar)}")
        reports, converges = bks.classify_pairing(d, args.m_max)
    except OverflowError:
        raise CliError(f"--lam {args.lam}: lam/(2*hbar) or a mu moment overflows a float at "
                       f"hbar = {_fmt(args.hbar)}") from None
    lines = [
        f"# kind=momentum n={args.n} lam={lam} hbar={_fmt(args.hbar)} m_max={args.m_max}",
        f"# converges={str(converges).lower()}",
        "n,m,j,exponent,alt_exponent,critical_j,classification,mu_moment_re,mu_moment_im",
    ]
    for r in reports:  # a momentum deformation attaches a mu moment to every term
        lines.append(
            f"{r.n},{r.m},{r.j},{r.exponent},{r.alt_exponent},{r.j_critical},"
            f"{r.classification},{_fmt(r.mu_moment.real)},{_fmt(r.mu_moment.imag)}"
        )
    _emit(lines, args.csv)
    return EXIT_OK


def cmd_bks_pair(args) -> int:
    from . import bks

    betas = _parse_range(args.beta)
    result = bks.position_pairing(args.n, args.hbar)
    deformation = bks.PositionDeformation(args.n)
    lines = [
        f"# kind=position n={args.n} hbar={_fmt(args.hbar)} beta={args.beta}",
        f"# converges={str(result.converges).lower()} "
        f"prefactor={_fmt(result.normalization.real)}{result.normalization.imag:+.17g}j",
        "beta,coeff_re,coeff_im,scaled_re,scaled_im",
    ]
    for b in betas:
        try:
            c = result.effective_coefficient(b)
            s = c * deformation.conserved_weight(b)
        except OverflowError:
            raise CliError(f"1 + 2*beta^n or its 3/2 power overflows a float at beta = {b}, "
                           f"n = {args.n}") from None
        lines.append(f"{_fmt(b)},{_fmt(c.real)},{_fmt(c.imag)},{_fmt(s.real)},{_fmt(s.imag)}")
    _emit(lines, args.csv)
    return EXIT_OK


def _parse_init(spec: str) -> dict:
    kind, _, rest = spec.partition(":")
    params = {"q0": 0.0, "p0": 0.0, "sigma": 1.0}
    try:
        if kind != "gaussian":
            raise ValueError
        if rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                if key not in params:
                    raise ValueError
                params[key] = float(val)
        if params["sigma"] <= 0 or not all(map(math.isfinite, params.values())):
            raise ValueError
    except ValueError:
        raise CliError("--init expects 'gaussian:q0=..,p0=..,sigma=..' with finite numbers "
                       "and sigma > 0") from None
    return params


def cmd_evolve(args) -> int:
    if args.snap_every < 1:
        raise CliError("--snap-every expects an integer >= 1")
    try:
        gmin, gmax, gnodes = args.grid.split(":")
        q_min, q_max, nodes = float(gmin), float(gmax), int(gnodes)
        if not (math.isfinite(q_min) and math.isfinite(q_max)):
            raise ValueError
    except ValueError:
        raise CliError("--grid expects 'qmin:qmax:nodes' with finite numbers qmin, qmax and "
                       "an integer nodes") from None
    # every row and snapshot is held until the run ends, so each size is bounded before any work
    if nodes > NODES_MAX:
        raise CliError(f"--grid gives more than {NODES_MAX} nodes; use fewer nodes")
    if args.steps + 1 > EVOLVE_ROWS_MAX:
        raise CliError(f"--steps gives more than {EVOLVE_ROWS_MAX} rows; use fewer steps")
    if args.snapshots and (1 + args.steps // args.snap_every) * 16 * nodes > SNAPSHOT_BYTES_MAX:
        raise CliError(f"--snapshots gives more than {SNAPSHOT_BYTES_MAX} bytes; "
                       "use a larger --snap-every")

    import numpy as np

    from . import dynamics

    grid = dynamics.Grid1D(q_min, q_max, nodes)
    cfg = dynamics.EvolutionConfig(args.n, args.hbar, args.dt, steps=args.steps)
    init = _parse_init(args.init)
    prop = dynamics.Propagator(grid, cfg)
    state = dynamics.gaussian_state(grid, init["q0"], init["p0"], init["sigma"], args.hbar)
    with np.errstate(all="ignore"):  # an overflowing weight is refused, not warned about
        if not math.isfinite(dynamics.weighted_norm(state, args.n)):
            raise CliError(f"the weight (1 + 2*q^n)^(3/2) of weighted_norm overflows a float "
                           f"on the grid [{_fmt(q_min)}, {_fmt(q_max)}] at n = {args.n}; "
                           "shrink the domain")
    lines = [
        f"# n={args.n} hbar={_fmt(args.hbar)} dt={_fmt(args.dt)} steps={args.steps} "
        f"grid={_fmt(q_min)}:{_fmt(q_max)}:{nodes} init={args.init}",
        "t,l2_norm,weighted_norm,mean_q,var_q",
    ]
    watch = dynamics.BoundaryWatch()

    def record(s):
        watch.record(s)
        lines.append(
            f"{_fmt(s.t)},{_fmt(dynamics.l2_norm(s))},"
            f"{_fmt(dynamics.weighted_norm(s, args.n))},"
            f"{_fmt(dynamics.expectation_q(s))},{_fmt(dynamics.variance_q(s))}"
        )

    snapshots = None  # one row per kept state, step 0 and every snap_every-th, filled in place
    if args.snapshots:
        snapshots = np.empty((1 + args.steps // args.snap_every, nodes), dtype="<c16")
        snapshots[0] = state.psi
    record(state)
    for k in range(1, args.steps + 1):
        state = prop.step(state)
        record(state)
        if args.snapshots and k % args.snap_every == 0:
            snapshots[k // args.snap_every] = state.psi
    _check_writable(snapshots=args.snapshots, csv=args.csv)
    with open(args.snapshots, "wb") if args.snapshots else contextlib.nullcontext() as snap:
        report = watch.report()
        if report:
            print(f"warning: {report}", file=sys.stderr)
        _emit(lines, args.csv)
        if snap:
            # One row per snapshot: little-endian float64 interleaved re/im per node.
            snapshots.view("<f8").tofile(snap)
    return EXIT_OK


def cmd_bs_count(args) -> int:
    from . import bohrsommerfeld

    spec = args.E
    try:
        lo, hi = (int(x) for x in (spec.split("..") if ".." in spec else (spec, spec)))
        if lo < 1 or hi < lo:
            raise ValueError
    except ValueError:
        raise CliError("--E expects a level or 'lo..hi' with integers 1 <= lo <= hi") from None
    if hi - lo + 1 > LEVELS_MAX:  # not len(range): a range past sys.maxsize has no len
        raise CliError(f"--E gives more than {LEVELS_MAX} levels; use a smaller range")
    levels = range(lo, hi + 1)
    squares = (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6  # sum of E^2
    if args.points and squares - len(levels) > POINTS_MAX:
        raise CliError(f"--points gives more than {POINTS_MAX} points; use a smaller range")
    lines = [f"# E={spec}", "E,standard_dim,folded_dim"]
    for E in levels:
        lines.append(f"{E},{bohrsommerfeld.standard_dim(E)},{bohrsommerfeld.folded_count(E)}")
    _check_writable(points=args.points, csv=args.csv)
    with open(args.points, "w") if args.points else contextlib.nullcontext() as points:
        _emit(lines, args.csv)
        if points:
            points.write("E,l\n")
            for E in levels:
                points.writelines(f"{E},{_fmt(p.value)}\n" for p in bohrsommerfeld.folded_points(E))
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    from . import verify

    results = verify.run_all(seed=args.seed)
    for r in results:
        print(r.line())
    fails = sum(1 for r in results if r.status == verify.FAIL)
    flags = sum(1 for r in results if r.status == verify.FLAG)
    passes = len(results) - fails - flags
    print(f"# summary: {passes} pass, {flags} flagged, {fails} fail")
    if fails:
        return EXIT_VERIFY
    if flags and args.strict:
        return EXIT_FLAGS
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="pseudoquant", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    # each option that several subcommands take is declared once, in a parent parser
    problem = _Parser(add_help=False)
    problem.add_argument("--problem", help="JSON problem file")
    operator = _Parser(add_help=False, parents=[problem])
    operator.add_argument("--json", action="store_true", help="JSON output")
    numeric = _Parser(add_help=False)
    numeric.add_argument("--n", type=int, required=True)
    numeric.add_argument("--hbar", type=float, default=1.0)
    numeric.add_argument("--csv", help="write CSV output to this path")

    p = sub.add_parser("commutator", parents=[operator],
                       help="commutator of two quantised observables")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--formal", action="store_true", help="divide out the -i*hbar factor")
    p.set_defaults(func=cmd_commutator)

    p = sub.add_parser("quantise", parents=[operator], help="quantise one observable")
    p.add_argument("--observable", required=True)
    p.set_defaults(func=cmd_quantise)

    p = sub.add_parser("preserve", parents=[problem], help="flat-section preservation verdicts")
    p.add_argument("--observable", help="one observable: JSON verdict and residuals")
    p.add_argument("--grid", help="'m,n' monomial grid bounds: CSV table")
    p.add_argument("--case", choices=CASE_TAGS, help="connection case (--grid only; default standard)")
    p.add_argument("--deformation", help="scaling deformation expression (--grid only; a1/b1 chart)")
    p.add_argument("--csv", help="write the grid CSV to this path (--grid only)")
    p.set_defaults(func=cmd_preserve)

    p = sub.add_parser("bks", help="pairing classification and evaluation")
    modes = p.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("classify", parents=[numeric], help="momentum term table")
    p.add_argument("--m-max", type=int, default=2)
    p.add_argument("--lam", default="1", help="rational deformation magnitude")
    p.set_defaults(func=cmd_bks_classify)
    p = modes.add_parser("pair", parents=[numeric], help="position coefficient profile")
    p.add_argument("--beta", default="0:2:0.1", help="'start:stop:step' sample range")
    p.set_defaults(func=cmd_bks_pair)

    p = sub.add_parser("evolve", parents=[numeric], help="deformed Schroedinger evolution")
    p.add_argument("--grid", default="-10:10:2048", help="'qmin:qmax:nodes'")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--init", default="gaussian:q0=0,p0=2,sigma=0.5")
    p.add_argument("--snapshots", help="write binary state snapshots to this path")
    p.add_argument("--snap-every", type=int, default=100)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("bs-count", help="integral-point counting")
    p.add_argument("--E", default="1..20", help="energy level or range 'lo..hi'")
    p.add_argument("--points", help="write the folded point list to this path")
    p.add_argument("--csv", help="write counts to this path")
    p.set_defaults(func=cmd_bs_count)

    p = sub.add_parser("verify-paper", help="run the full verification battery")
    p.add_argument("--strict", action="store_true", help="flagged discrepancies exit 3")
    p.add_argument("--seed", type=int, default=None, help="seed for the random-pair sweep")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def _fold_dash_values(argv: list[str]) -> list[str]:
    """Join '--grid -10:10:2048' into '--grid=-10:10:2048' so argparse takes it as the value.

    Any token that starts with a single '-' but '-h' joins the '--option' just before it,
    whatever the option: argparse then refuses a value joined to a flag.  A token that
    starts with '--' is an option and stays apart.
    """
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (tok.startswith("-") and not tok.startswith("--") and tok != "-h"
                and prev.startswith("--") and len(prev) > 2 and "=" not in prev):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_dash_values(list(argv)))
        if not getattr(args, "command", None):
            parser.print_help()
            return EXIT_INPUT
        return args.func(args)
    except (CliError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(run())
