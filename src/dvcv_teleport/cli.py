"""Command-line front end: parameter sweeps, figure-data bundles, claim
verification, and the circuit oracle.

Output is deterministic: a comment header (tool version, argument echo,
truncation settings — never a timestamp) followed by comma-separated rows
with nine significant digits, so identical invocations are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
guard failure (truncation tail, non-finite amplitude, singular amplitude
factor).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, demodulation as dm, protocol, verification
from .displaced import matrix_element_table
from .fock import MeasurementRangeError, NonFiniteAmplitudeError, TailMassError
from .optics import HybridChannel, negativity

ENV_OUT_DIR = "DVCV_TELEPORT_OUT_DIR"

class UsageError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _out_dir(path: str | None) -> Path:
    if path is not None:
        return Path(path)
    return Path(os.environ.get(ENV_OUT_DIR, "."))


def _write_csv(path: Path, header_lines: list[str], columns: tuple[str, ...],
               rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _header(args, echo_keys: list[str]) -> list[str]:
    echo = " ".join(f"{k}={getattr(args, k)}" for k in echo_keys)
    return [
        f"dvcv-teleport {__version__}",
        f"command: {args.command} {echo}",
        f"truncation: nmax={args.nmax} tail_tol={args.tail_tol}",
    ]


def _check_tail(alphas, ls, n_cut: int, tail_tol: float) -> None:
    """Raise TailMassError when the cutoff ``n_cut`` drops more than
    ``tail_tol`` of a row ``l`` in ``ls`` at any displacement in ``alphas``.

    A row that overflows gives a non-finite loss, which counts as over
    tolerance; the overflow itself is the reported failure, so numpy is
    not asked to warn about it.
    """
    for a in alphas:
        with np.errstate(over="ignore", invalid="ignore"):
            table = matrix_element_table(max(ls), n_cut, a)
            loss, l = max((table.normalization_defect(l), l) for l in ls)
        if not loss <= tail_tol:
            raise TailMassError(
                f"--nmax {n_cut} drops {loss:.3e} of row l={l} at alpha={a:.9g}, "
                f"above --tail-tol {tail_tol:g}")


# -- curves ------------------------------------------------------------------
# A row function gives the values that follow the leading column of one
# output row; `sweep` and `figure` share them and walk alpha serially.

def _dual_row(alpha, l, k, n_cut):
    p = protocol.direct_success_probability(l, k, alpha, n_cut)
    q = protocol.am_probability(l, k, alpha, n_cut)
    return p, q, p + q


def _single_row(alpha, l, k, n_cut):
    adds = dm.single_rail_demod_additions(l, k, alpha, n_cut)
    return (adds["clean"], adds["swap"], adds["displacement_first"],
            adds["displacement_chain"])


def _init_am_rows(rail, alpha, a1s, n_cut):
    """Total success and clean-outcome mass of the pre-modulated ``rail``
    ("dual" or "single") protocol, defined for l=0, k=1, one row per
    original |a1| in ``a1s``."""
    totals, clean = dm.initially_am_totals(rail, a1s, alpha, n_cut)
    return zip(totals.tolist(), clean.tolist())


#: protocol -> (columns, row function); the init_am row functions take the
#: list of original |a1| in place of (l, k) and give one row per |a1|
CURVES = {
    "dual": (("alpha", "p_direct", "p_modulated", "p_total"), _dual_row),
    "single": (("alpha", "p_clean", "dp_swap", "dp_disp_first", "dp_disp_chain"),
               _single_row),
    "init_am_dual": (("alpha", "a1_abs", "total_success", "p_clean_outcome"),
                     partial(_init_am_rows, "dual")),
    "init_am_single": (("alpha", "a1_abs", "total_success", "p_clean_outcome"),
                       partial(_init_am_rows, "single")),
}
PROTOCOLS = tuple(CURVES)
FIGURES = ("fig2", "fig3", "fig4", "fig5")


# -- sweep ---------------------------------------------------------------

def _a1_values(args) -> list[float]:
    if args.a1_abs is not None and args.a1_grid is not None:
        raise UsageError("give either --a1-abs or --a1-grid, not both")
    if args.a1_abs is not None:
        if not 0.0 <= args.a1_abs <= 1.0:
            raise UsageError("--a1-abs must lie in [0, 1]")
        return [args.a1_abs]
    if args.a1_grid is not None:
        if args.a1_grid < 2:
            raise UsageError("--a1-grid needs at least 2 points")
        return list(np.linspace(0.0, 1.0, args.a1_grid))
    return []


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if not args.alpha_min < args.alpha_max:
        raise UsageError("--alpha-min must be below --alpha-max")
    if args.alpha_min <= 0.0:
        raise UsageError("displacement amplitudes must be positive")
    alphas = list(np.linspace(args.alpha_min, args.alpha_max, args.steps))
    a1s = _a1_values(args)
    l, k, n_cut = args.l, args.k, args.nmax
    if l < 0 or k < 0 or l == k:
        raise UsageError("--l and --k must be distinct nonnegative photon numbers")
    columns, row = CURVES[args.protocol]
    if args.protocol.startswith("init_am"):
        if (l, k) != (0, 1):
            raise UsageError("the init_am protocols are defined for l=0, k=1")
        if not a1s:
            raise UsageError("the init_am protocols need --a1-abs or --a1-grid")
    elif a1s:
        raise UsageError("--a1-abs/--a1-grid apply to the init_am protocols only")
    _check_tail(alphas, (l, k), n_cut, args.tail_tol)
    if a1s:
        rows = [(a, x, *values) for a in alphas
                for x, values in zip(a1s, row(a, a1s, n_cut))]
    else:
        rows = [(a, *row(a, l, k, n_cut)) for a in alphas]

    out_path = args.out
    if out_path is None:
        name = f"sweep_{args.protocol}_{l}{k}.csv"
        out_path = _out_dir(None) / name
    _write_csv(Path(out_path), _header(args, [
        "protocol", "l", "k", "alpha_min", "alpha_max", "steps",
        "a1_abs", "a1_grid",
    ]), columns, rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


# -- figures ---------------------------------------------------------------

def _alpha_grid(lo, hi, step, extras=()) -> list[float]:
    vals = set(np.round(np.arange(lo, hi + step / 2, step), 10))
    vals.update(extras)
    return sorted(vals)


def _pair_sum_rows(l, k, pairs, extras, n_cut, tail_tol):
    """fig2/fig3: direct mass, the pair sums of ``pairs`` and the sign-free
    total (direct mass plus the (l, k) pair sum) on the alpha grid."""
    columns = ("alpha", "p_direct", *(f"ps_{n}{m}" for n, m in pairs), "p_signfree")
    alphas = _alpha_grid(0.05, 1.2, 0.01, extras)
    _check_tail(alphas, (l, k), n_cut, tail_tol)
    rows = []
    for a in alphas:
        p = protocol.direct_success_probability(l, k, a, n_cut)
        sums = [protocol.pair_sum_probability(l, k, n, m, a) for n, m in pairs]
        rows.append((a, p, *sums, p + protocol.pair_sum_probability(l, k, l, k, a)))
    return columns, rows


def _figure_rows(name: str, n_cut: int, tail_tol: float):
    if name == "fig2":
        return _pair_sum_rows(0, 1, ((0, 1), (0, 2), (1, 2), (0, 3)),
                              (1.0 / math.sqrt(2.0), 0.628482), n_cut, tail_tol)
    if name == "fig3":
        return _pair_sum_rows(1, 2, ((0, 1), (0, 2), (1, 2), (1, 3)),
                              (0.4072, 0.5053), n_cut, tail_tol)
    if name == "fig4":
        columns, row = CURVES["single"]
        alphas = _alpha_grid(0.05, 1.5, 0.025)
        _check_tail(alphas, (0, 1), n_cut, tail_tol)
        return columns, [(a, *row(a, 0, 1, n_cut)) for a in alphas]
    if name == "fig5":
        alphas = (0.2, 0.3, 0.4)
        _check_tail(alphas, (0, 1), n_cut, tail_tol)
        rails = ("dual", "single")
        columns = ("a1_abs", *(f"{rail}_alpha{a:.2f}".replace(".", "")
                               for rail in rails for a in alphas))
        a1s = np.linspace(0.0, 0.99, 100)
        totals = [dm.initially_am_totals(rail, a1s, a, n_cut)[0].tolist()
                  for rail in rails for a in alphas]
        return columns, list(zip(a1s, *totals))
    raise UsageError(f"unknown figure {name!r}; choose from {FIGURES}")


def cmd_figure(args) -> int:
    columns, rows = _figure_rows(args.name, args.nmax, args.tail_tol)
    out = _out_dir(args.out) / f"{args.name}.csv"
    _write_csv(out, _header(args, ["name"]), columns, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    if args.gnuplot:
        script = out.with_suffix(".gp")
        plots = ", ".join(
            f"'{out.name}' using 1:{i + 2} with lines"
            for i in range(len(columns) - 1))
        script.write_text(
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            f"set xlabel '{columns[0]}'\n"
            f"plot {plots}\n")
        print(f"wrote {script}")
    return 0


# -- verify / negativity / oracle -------------------------------------------

def cmd_verify(args) -> int:
    results = verification.run_suite(args.suite)
    print(verification.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_negativity(args) -> int:
    if args.beta <= 0.0:
        raise UsageError("--beta must be positive")
    closed, numeric = negativity(HybridChannel(args.beta))
    print(f"closed form : {closed:.9g}")
    print(f"numeric PPT : {numeric:.9g}")
    print(f"difference  : {abs(closed - numeric):.3g}")
    return 0


def cmd_oracle(args) -> int:
    if not 0.0 < args.r <= 0.3:
        raise UsageError("--r must lie in (0, 0.3]")
    if args.alpha <= 0.0:
        raise UsageError("--alpha must be positive")
    if (args.l - args.k) % 2 == 0:
        raise UsageError("--l and --k must differ by an odd number")
    try:
        qubit = protocol.UnknownQubit(args.a0, args.a1, args.l, args.k)
    except ValueError as e:
        raise UsageError(f"malformed qubit: {e}") from None
    beta, rows = protocol.circuit_vs_limit(qubit, args.alpha, args.r, args.tail_tol)
    print(f"# circuit at alpha={args.alpha:.9g} r={args.r:.9g} beta={beta:.9g}")
    print("parity,n,m,p_circuit,p_limit,rel_err,infidelity,purity")
    for rec, p_limit, rel, infid in rows:
        print(",".join(_fmt(v) for v in (
            rec.outcome.parity, rec.outcome.n, rec.outcome.m,
            rec.probability, p_limit, rel, infid, rec.purity,
        )))
    worst = max(infid for *_, infid in rows)
    print(f"# max corrected-state infidelity: {worst:.6g}")
    return 0


# -- parser -----------------------------------------------------------------

def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _tail_tol(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {text}")
    return value


def _add_common(p: argparse.ArgumentParser, nmax: bool = False,
                tail_tol: bool = False) -> None:
    """Add ``--config`` and, where the command reads them, ``--nmax`` and
    ``--tail-tol``."""
    if nmax:
        p.add_argument("--nmax", type=_nonnegative_int, default=20,
                       help="photon-number cutoff for analytic sums (default 20)")
    if tail_tol:
        p.add_argument("--tail-tol", type=_tail_tol, default=1e-10,
                       help="admissible truncation-tail probability (default 1e-10)")
    p.add_argument("--config", type=str, default=None,
                   help="key=value file supplying defaults for any flag")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvcv-teleport",
        description="hybrid DV-CV teleportation sweeps, figures, and checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="scan the displacement amplitude")
    p.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha-min", type=_finite_float, required=True)
    p.add_argument("--alpha-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--a1-abs", type=float, default=None)
    p.add_argument("--a1-grid", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    _add_common(p, nmax=True, tail_tol=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="emit the curve bundle of one figure")
    p.add_argument("name", choices=FIGURES)
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--gnuplot", action="store_true",
                   help="also write a gnuplot script next to the CSV")
    _add_common(p, nmax=True, tail_tol=True)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(verification.SUITES), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("negativity", help="entanglement of the resource state")
    p.add_argument("--beta", type=_finite_float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_negativity)

    p = sub.add_parser("oracle", help="finite-reflectance circuit vs the limit")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--a0", type=float, default=math.sqrt(0.7))
    p.add_argument("--a1", type=float, default=math.sqrt(0.3))
    _add_common(p, tail_tol=True)
    p.set_defaults(func=cmd_oracle)

    return parser


def _load_config(path: str) -> list[str]:
    tokens = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {line!r} is not key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")
        if key == "config":
            raise UsageError("config files cannot nest")
        tokens.extend([f"--{key}", value.strip()])
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Expand a --config flag into its flag tokens, placed right after the
    subcommand so explicit command-line flags still win."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None:
        return argv
    sub_pos = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    if sub_pos is None:
        return argv
    return argv[:sub_pos + 1] + _load_config(path) + argv[sub_pos + 1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(_inject_config(argv))
        except SystemExit as e:
            return int(e.code or 0)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TailMassError, MeasurementRangeError, OverflowError,
            NonFiniteAmplitudeError, protocol.SingularFactorError) as e:
        print(f"numeric guard: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
