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
from pathlib import Path

import numpy as np

from . import __version__, demodulation as dm, optics, protocol, verification
from .displaced import matrix_element_table
from .fock import MAX_CUTOFF, MeasurementRangeError, NonFiniteAmplitudeError, TailMassError
from .optics import MAX_SPLIT_CELLS, HybridChannel

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


def _require_finite(columns: tuple[str, ...], rows: list[tuple], where) -> None:
    """Raise FloatingPointError at the first non-finite cell of the numeric
    ``rows``, naming its column and ``where(i)`` of its row i."""
    cells = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(cells))
    if len(bad):
        i, j = bad[0].tolist()
        raise FloatingPointError(f"{columns[j]} is {cells[i, j]} at {where(i)}")


def _write_csv(path: Path, header_lines: list[str], columns: tuple[str, ...],
               rows: list[tuple]) -> None:
    """Write the CSV; a non-finite cell raises FloatingPointError first,
    and a path that cannot be opened for writing UsageError."""
    _require_finite(columns, rows,
                    lambda i: f"{columns[0]}={float(rows[i][0]):.9g}; no file written")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", newline="")
    except OSError as e:
        raise UsageError(f"--out: cannot write {path} ({e.strerror}: {e.filename})") from None
    with fh:
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


# -- curves ------------------------------------------------------------------
# A column function maps one coefficient table over the whole alpha grid
# (rows up to max(l, k)) to the columns after alpha, one array each: a value
# per alpha or, for the init_am curves, which read the original |a1| values
# in place of (l, k), per alpha and |a1|.  `sweep` and `figure` share them.

def _dual(table, l, k, a1s):
    p, q = protocol._direct_mass(l, k, table), protocol._am_mass(l, k, table)
    return p, q, p + q


def _single(table, l, k, a1s):
    adds = dm._single_rail_additions(l, k, table)
    return adds["clean"], adds["swap"], adds["displacement_first"], adds["displacement_chain"]


def _pair_sums(pairs):
    """fig2/fig3: direct mass, the pair sums of ``pairs`` and the sign-free
    total (direct mass plus the (l, k) pair sum).  Pair sums are exact, so
    they read rows up to their counts whatever the cutoff."""
    top = max(map(max, pairs))

    def columns(table, l, k, a1s):
        p = protocol._direct_mass(l, k, table)
        if table.c.shape[-1] <= top:
            table = matrix_element_table(max(l, k), top, table.alpha)
        sums = [protocol._pair_sum(l, k, n, m, table) for n, m in (*pairs, (l, k))]
        return (p, *sums[:-1], p + sums[-1])
    return columns


#: protocol -> (columns, column function, counted modes)
CURVES = {
    "dual": (("alpha", "p_direct", "p_modulated", "p_total"), _dual, 2),
    "single": (("alpha", "p_clean", "dp_swap", "dp_disp_first", "dp_disp_chain"),
               _single, 1),
    "init_am_dual": (("alpha", "a1_abs", "total_success", "p_clean_outcome"),
                     lambda table, l, k, a1s: dm._am_totals("dual", a1s, table), 2),
    "init_am_single": (("alpha", "a1_abs", "total_success", "p_clean_outcome"),
                       lambda table, l, k, a1s: dm._am_totals("single", a1s, table), 1),
}
PROTOCOLS = tuple(CURVES)


def _check_cells(curve, n_alpha: int, n_a1: int, l: int, k: int, n_cut: int) -> None:
    """Raise UsageError when ``curve``'s largest array at ``n_alpha`` alpha
    and ``n_a1`` |a1| values, about rows x alpha values x |a1| values x
    (n_cut + 1)^(counted modes) cells, passes ``optics.MAX_SPLIT_CELLS``.
    Reads the counts alone, so a sweep checks before building its grids."""
    points = n_alpha * max(1, n_a1)
    cells = (max(l, k) + 1) * points * (n_cut + 1) ** curve[2]
    if cells > MAX_SPLIT_CELLS:
        raise UsageError(
            f"--nmax {n_cut} at {points:,} points needs {cells:,} cells, above the largest "
            f"supported ({MAX_SPLIT_CELLS:,}); lower --nmax, or a sweep's --steps or --a1-grid")


def _curve_rows(curve, alphas, l: int, k: int, a1s, n_cut: int, tail_tol: float):
    """Rows (alpha, values), or (alpha, |a1|, values) when ``a1s`` is
    given, of ``curve`` on ``alphas``, all from one coefficient table.

    Raises UsageError before building it past :func:`_check_cells`, and
    TailMassError when the cutoff drops more than ``tail_tol`` of
    row l or k at any alpha; an overflowing row's non-finite loss counts as
    over tolerance, so numpy is not asked to warn about the overflow.
    """
    _check_cells(curve, len(alphas), len(a1s), l, k, n_cut)
    column_function = curve[1]
    with np.errstate(over="ignore", invalid="ignore"):
        table = matrix_element_table(max(l, k), n_cut, np.asarray(alphas, dtype=float))
        losses = np.array([table.normalization_defect(row) for row in (l, k)])
    over = ~(losses <= tail_tol)
    if over.any():
        i = int(np.argmax(over.any(axis=0)))
        loss, row = max((x, row) for x, row, o in zip(losses[:, i].tolist(), (l, k), over[:, i])
                        if o)
        raise TailMassError(
            f"--nmax {n_cut} drops {loss:.3e} of row l={row} at alpha={table.alpha[i]:.9g}, "
            f"above --tail-tol {tail_tol:g}")
    columns = [np.asarray(v).tolist() for v in column_function(table, l, k, a1s)]
    if not a1s:
        return list(zip(alphas, *columns))
    return [(a, x, *cells) for a, *per_a1 in zip(alphas, *columns)
            for x, *cells in zip(a1s, *per_a1)]


# -- sweep ---------------------------------------------------------------

def _a1_count(args) -> int:
    """How many |a1| values the flags ask for, 0 for none."""
    if args.a1_abs is not None and args.a1_grid is not None:
        raise UsageError("give either --a1-abs or --a1-grid, not both")
    if args.a1_abs is not None:
        if not 0.0 <= args.a1_abs <= 1.0:
            raise UsageError("--a1-abs must lie in [0, 1]")
        return 1
    if args.a1_grid is not None:
        if args.a1_grid < 2:
            raise UsageError("--a1-grid needs at least 2 points")
        return args.a1_grid
    return 0


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if not args.alpha_min < args.alpha_max:
        raise UsageError("--alpha-min must be below --alpha-max")
    if args.alpha_min <= 0.0:
        raise UsageError("displacement amplitudes must be positive")
    n_a1 = _a1_count(args)
    l, k, n_cut = args.l, args.k, args.nmax
    if l < 0 or k < 0 or l == k:
        raise UsageError("--l and --k must be distinct nonnegative photon numbers")
    if args.protocol.startswith("init_am"):
        if (l, k) != (0, 1):
            raise UsageError("the init_am protocols are defined for l=0, k=1")
        if not n_a1:
            raise UsageError("the init_am protocols need --a1-abs or --a1-grid")
    elif n_a1:
        raise UsageError("--a1-abs/--a1-grid apply to the init_am protocols only")
    out_path = Path(args.out) if args.out is not None else (
        _out_dir(None) / f"sweep_{args.protocol}_{l}{k}.csv")
    if out_path.is_dir():
        raise UsageError(f"--out {out_path} is a directory; sweep writes one file")
    curve = CURVES[args.protocol]
    _check_cells(curve, args.steps, n_a1, l, k, n_cut)
    alphas = list(np.linspace(args.alpha_min, args.alpha_max, args.steps))
    a1s = ([args.a1_abs] if args.a1_abs is not None
           else list(np.linspace(0.0, 1.0, n_a1)) if n_a1 else [])
    rows = _curve_rows(curve, alphas, l, k, a1s, n_cut, args.tail_tol)
    _write_csv(out_path, _header(args, [
        "protocol", "l", "k", "alpha_min", "alpha_max", "steps",
        "a1_abs", "a1_grid",
    ]), curve[0], rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


# -- figures ---------------------------------------------------------------

def _alpha_grid(lo, hi, step, extras=()) -> list[float]:
    vals = set(np.round(np.arange(lo, hi + step / 2, step), 10))
    vals.update(extras)
    return sorted(vals)


#: fig2-fig4: (alpha grid, (l, k), curve); fig2 and fig3 carry the
#: paper's operating points (``verification``) exactly.  fig5 is the
#: init_am totals of both rails at three alpha, one row per original |a1|.
_FIGURE_CURVES = {
    "fig2": (_alpha_grid(0.05, 1.2, 0.01, (verification.ALPHA_01, verification.ALPHA_PEAK_01)),
             (0, 1),
             (("alpha", "p_direct", "ps_01", "ps_02", "ps_12", "ps_03", "p_signfree"),
              _pair_sums(((0, 1), (0, 2), (1, 2), (0, 3))), 1)),
    "fig3": (_alpha_grid(0.05, 1.2, 0.01, (verification.ALPHA_PEAK_12, verification.ALPHA_12)),
             (1, 2),
             (("alpha", "p_direct", "ps_01", "ps_02", "ps_12", "ps_13", "p_signfree"),
              _pair_sums(((0, 1), (0, 2), (1, 2), (1, 3))), 1)),
    "fig4": (_alpha_grid(0.05, 1.5, 0.025), (0, 1), CURVES["single"]),
}
FIGURES = (*_FIGURE_CURVES, "fig5")


def _figure_rows(name: str, n_cut: int, tail_tol: float):
    if name in _FIGURE_CURVES:
        alphas, (l, k), curve = _FIGURE_CURVES[name]
        return curve[0], _curve_rows(curve, alphas, l, k, [], n_cut, tail_tol)
    if name == "fig5":
        alphas, a1s, rails = (0.2, 0.3, 0.4), list(np.linspace(0.0, 0.99, 100)), ("dual", "single")
        columns = ("a1_abs", *(f"{rail}_alpha{a:.2f}".replace(".", "")
                               for rail in rails for a in alphas))
        # rows run over rail, alpha, then |a1|: a column per (rail, alpha)
        totals = [row[2] for rail in rails for row in _curve_rows(
            CURVES[f"init_am_{rail}"], alphas, 0, 1, a1s, n_cut, tail_tol)]
        return columns, list(zip(a1s, *(totals[i:i + len(a1s)]
                                        for i in range(0, len(totals), len(a1s)))))
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
    closed, numeric = optics.negativity(HybridChannel(args.beta))
    _require_finite(("closed form", "numeric PPT"), [(closed, numeric)],
                    lambda i: f"beta={args.beta:.9g}; nothing printed")
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
    columns = ("parity", "n", "m", "p_circuit", "p_limit", "rel_err", "infidelity", "purity")
    cells = [(rec.outcome.parity, rec.outcome.n, rec.outcome.m,
              rec.probability, p_limit, rel, infid, rec.purity)
             for rec, p_limit, rel, infid in rows]
    _require_finite(columns[1:], [cell[1:] for cell in cells],
                    lambda i: f"parity={cells[i][0]} n={cells[i][1]} m={cells[i][2]}; "
                              "nothing printed")
    print(f"# circuit at alpha={args.alpha:.9g} r={args.r:.9g} beta={beta:.9g}")
    print(",".join(columns))
    for cell in cells:
        print(",".join(_fmt(v) for v in cell))
    worst = max(infid for *_, infid in rows)
    print(f"# max corrected-state infidelity: {worst:.6g}")
    return 0


# -- parser -----------------------------------------------------------------

def _cutoff(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    if value > MAX_CUTOFF:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_CUTOFF:,}, got {value}")
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
        p.add_argument("--nmax", type=_cutoff, default=20,
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
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise UsageError(f"--config: cannot read {path}: {e.strerror}") from None
    tokens = []
    for raw in text.splitlines():
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
    except (TailMassError, MeasurementRangeError, OverflowError, FloatingPointError,
            NonFiniteAmplitudeError, protocol.SingularFactorError) as e:
        print(f"numeric guard: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
