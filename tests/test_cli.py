import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvcv_teleport
from dvcv_teleport import cli, demodulation as dm, displaced, optics, protocol
from dvcv_teleport.cli import main


def read_csv(path):
    text = path.read_text()
    header = [l for l in text.splitlines() if l.startswith("#")]
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    return header, list(csv.DictReader(io.StringIO(body)))


def test_sweep_dual_peak(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--protocol", "dual", "--l", "0", "--k", "1",
                 "--alpha-min", "0.1", "--alpha-max", "1.2", "--steps", "111",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert len(rows) == 111
    assert any("dvcv-teleport" in h for h in header)
    best = max(rows, key=lambda r: float(r["p_direct"]))
    assert abs(float(best["alpha"]) - 0.628) < 0.006
    assert abs(float(best["p_direct"]) - 0.2637) < 5e-4
    for r in rows:
        for col in ("p_direct", "p_modulated", "p_total"):
            assert 0.0 <= float(r[col]) <= 1.0 + 1e-9
        assert abs(float(r["p_total"]) - 1.0) < 1e-6


def test_sweep_degenerate_two_rows(tmp_path):
    out = tmp_path / "two.csv"
    assert main(["sweep", "--protocol", "dual", "--alpha-min", "0.4",
                 "--alpha-max", "0.5", "--steps", "2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2


def test_sweep_deterministic_bytes(tmp_path):
    args = ["sweep", "--protocol", "dual", "--alpha-min", "0.2",
            "--alpha-max", "0.9", "--steps", "15"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_usage_errors(tmp_path):
    assert main(["sweep", "--protocol", "dual", "--alpha-min", "1.0",
                 "--alpha-max", "0.5", "--steps", "5"]) == 2
    assert main(["sweep", "--protocol", "dual", "--alpha-min", "0.1",
                 "--alpha-max", "0.5", "--steps", "1"]) == 2
    assert main(["sweep", "--protocol", "dual", "--alpha-min", "0.1",
                 "--alpha-max", "0.5", "--steps", "3", "--a1-abs", "0.2"]) == 2
    assert main(["sweep", "--protocol", "init_am_dual", "--alpha-min", "0.1",
                 "--alpha-max", "0.5", "--steps", "3"]) == 2
    assert main(["sweep", "--protocol", "bogus", "--alpha-min", "0.1",
                 "--alpha-max", "0.5", "--steps", "3"]) == 2
    assert main(["sweep", "--protocol", "dual", "--alpha-min", "0.1",
                 "--alpha-max", "0.5", "--steps", "3", "--nmax", "-3"]) == 2


@pytest.mark.parametrize("l, k, code", [
    ("-1", "0", 2),  # -1 would wrap to the coefficient table's last row
    ("0", "-1", 2),
    ("1", "1", 2),
    ("1", "3", 0),  # no parity rule: the probabilities hold for any l != k
])
def test_sweep_checks_the_counts(l, k, code, tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--protocol", "dual", "--l", l, "--k", k,
                 "--alpha-min", "0.1", "--alpha-max", "1.0", "--steps", "3",
                 "--out", str(out)]) == code
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("argv", [
    ("sweep", "--protocol", "dual", "--alpha-min", "0.1", "--alpha-max", "inf",
     "--steps", "3"),
    ("sweep", "--protocol", "dual", "--alpha-min", "nan", "--alpha-max", "1",
     "--steps", "3"),
    ("sweep", "--protocol", "dual", "--alpha-min", "0.1", "--alpha-max", "20",
     "--steps", "3", "--tail-tol", "nan"),
    ("sweep", "--protocol", "dual", "--alpha-min", "0.1", "--alpha-max", "1",
     "--steps", "3", "--tail-tol", "-1"),
    ("sweep", "--protocol", "dual", "--alpha-min", "0.1", "--alpha-max", "1",
     "--steps", "3", "--tail-tol", "1"),
    ("figure", "fig2", "--tail-tol", "nan"),
    ("figure", "fig4", "--tail-tol", "inf"),
    ("oracle", "--alpha", "0.5", "--r", "0.1", "--tail-tol", "nan"),
    ("oracle", "--alpha", "0.5", "--r", "0.1", "--tail-tol", "-1"),
    ("oracle", "--alpha", "nan", "--r", "0.1"),
    ("oracle", "--alpha", "inf", "--r", "0.1"),
    ("negativity", "--beta", "nan"),
    ("negativity", "--beta", "inf"),
])
def test_non_finite_or_out_of_range_flag_is_usage_error(argv, tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DVCV_TELEPORT_OUT_DIR", raising=False)
    assert main(list(argv)) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("alpha_max", ["1e200", "1e17"])
def test_overflowing_sweep_is_a_numeric_guard(alpha_max, tmp_path, capsys):
    # the coefficient rows overflow, so the truncation loss is NaN; NaN
    # compares false with the tolerance, which must not read as "within"
    out = tmp_path / "far.csv"
    assert main(["sweep", "--protocol", "dual", "--alpha-min", "0.1",
                 "--alpha-max", alpha_max, "--steps", "3", "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_sweep_builds_each_chain_table_once(tmp_path):
    dm._chain_table.cache_clear()
    assert main(["sweep", "--protocol", "single", "--alpha-min", "0.4",
                 "--alpha-max", "0.5", "--steps", "2",
                 "--out", str(tmp_path / "single.csv")]) == 0
    info = dm._chain_table.cache_info()
    assert info.misses == info.currsize


def test_verify_properties_builds_the_transition_once(monkeypatch, capsys):
    # the suite reads the tables (3, no swap), (3, swap) and (4, swap); each
    # depth is one sweep of the shallower cached table, so the nine grid
    # steps of the transition are built once instead of once per table
    dm._chain_table.cache_clear()
    dm._transition.cache_clear()
    grid_steps = []
    step = dm._displacement_step

    def counted(a, n):
        if np.ndim(a):
            grid_steps.append(n)
        return step(a, n)

    monkeypatch.setattr(dm, "_displacement_step", counted)
    assert main(["verify", "--suite", "properties"]) == 0
    capsys.readouterr()
    assert grid_steps == list(range(9))
    info = dm._chain_table.cache_info()
    assert info.misses == info.currsize == 4 + 5


def _count_tables(monkeypatch) -> list:
    """The (l_max, n_max) of every coefficient table built from now on."""
    built = []
    rows = displaced.matrix_element_rows

    def counted(*args):
        built.append(args[:2])
        return rows(*args)

    monkeypatch.setattr(displaced, "matrix_element_rows", counted)
    monkeypatch.setattr(dm, "matrix_element_rows", counted)
    return built


def test_verify_properties_builds_one_table_per_alpha(monkeypatch, capsys):
    # one table per displacement for outcome completeness and the sign
    # rule, one factor grid per drawn alpha for reciprocity and one
    # probability table for the pair sums: 130 coefficient tables from cold
    # caches, not one per outcome
    dm._chain_table.cache_clear()
    dm._transition.cache_clear()
    built = _count_tables(monkeypatch)
    assert main(["verify", "--suite", "properties"]) == 0
    capsys.readouterr()
    assert len(built) <= 130


def test_verify_paper_reads_one_factor_grid_per_alpha(monkeypatch, capsys):
    # the Table 1/2 factor checks read one factor grid at each of their
    # two alpha instead of one table per printed entry: 133 -> 109 tables
    # from cold caches
    dm._chain_table.cache_clear()
    dm._transition.cache_clear()
    built = _count_tables(monkeypatch)
    assert main(["verify", "--suite", "paper"]) == 0
    capsys.readouterr()
    assert len(built) <= 109


def test_sweep_tables_do_not_grow_with_the_alpha_grid(monkeypatch, tmp_path):
    built = _count_tables(monkeypatch)
    counts = []
    for steps in ("11", "41"):
        built.clear()
        assert main(["sweep", "--protocol", "dual", "--alpha-min", "0.1",
                     "--alpha-max", "1.2", "--steps", steps,
                     "--out", str(tmp_path / f"dual{steps}.csv")]) == 0
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_pair_sum_figure_builds_one_table(name, monkeypatch, tmp_path):
    # the tail check, the direct mass and every pair sum over all 118
    # alpha read one table
    built = _count_tables(monkeypatch)
    assert main(["figure", name, "--out", str(tmp_path)]) == 0
    assert len(built) <= 1


def test_sweep_single_matches_fig4_rows(tmp_path):
    out = tmp_path / "single.csv"
    assert main(["sweep", "--protocol", "single", "--alpha-min", "0.05",
                 "--alpha-max", "0.1", "--steps", "3", "--out", str(out)]) == 0
    assert main(["figure", "fig4", "--out", str(tmp_path)]) == 0

    def body(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    sweep, fig4 = body(out), body(tmp_path / "fig4.csv")
    assert sweep == fig4[:4]  # header row plus alpha = 0.05, 0.075, 0.1


def test_sweep_init_am_grid(tmp_path):
    out = tmp_path / "am.csv"
    assert main(["sweep", "--protocol", "init_am_single", "--alpha-min", "0.2",
                 "--alpha-max", "0.3", "--steps", "2", "--a1-grid", "3",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 6  # steps x grid
    assert {r["a1_abs"] for r in rows} == {"0", "0.5", "1"}


def test_figure_fig2_operating_points(tmp_path):
    assert main(["figure", "fig2", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "fig2.csv")
    tgt = 1 / math.sqrt(2)
    at_root = min(rows, key=lambda r: abs(float(r["alpha"]) - tgt))
    assert abs(float(at_root["alpha"]) - tgt) < 1e-9
    assert abs(float(at_root["p_signfree"]) - 0.441789) < 5e-4
    at_peak = min(rows, key=lambda r: abs(float(r["alpha"]) - 0.628482))
    assert abs(float(at_peak["p_signfree"]) - 0.500673) < 5e-4


def test_figure_fig3_operating_points(tmp_path):
    assert main(["figure", "fig3", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "fig3.csv")
    at = min(rows, key=lambda r: abs(float(r["alpha"]) - 0.4072))
    assert abs(float(at["p_direct"]) + float(at["ps_12"]) - 0.5317) < 1e-3
    at2 = min(rows, key=lambda r: abs(float(r["alpha"]) - 0.5053))
    assert abs(float(at2["p_signfree"]) - 0.4014) < 1e-3


def test_figure_fig5_dominance(tmp_path):
    assert main(["figure", "fig5", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "fig5.csv")
    small = [r for r in rows if float(r["a1_abs"]) <= 0.2]
    assert small
    for r in small:
        assert float(r["single_alpha020"]) > float(r["dual_alpha020"])


@pytest.mark.parametrize("argv, out", [
    (["sweep", "--protocol", "init_am_dual", "--alpha-min", "0.2", "--alpha-max", "0.4",
      "--steps", "2", "--a1-abs", "0.3", "--nmax", "0", "--tail-tol", "0.999"], "a.csv"),
    (["figure", "fig5", "--nmax", "0", "--tail-tol", "0.9999"], ""),
])
def test_dual_premodulated_at_nmax_0_is_a_numeric_guard(argv, out, tmp_path, capsys):
    # the dual pre-modulated protocol reads count 1, which --nmax 0 cuts
    assert main(argv + ["--out", str(tmp_path / out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric guard: ")
    assert "count 1" in captured.err and len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_single_premodulated_at_nmax_0_runs(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--protocol", "init_am_single", "--alpha-min", "0.2",
                 "--alpha-max", "0.4", "--steps", "2", "--a1-abs", "0.3", "--nmax", "0",
                 "--tail-tol", "0.999", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r["total_success"] for r in rows] == ["0.877777232", "0.787721719"]


def test_figure_unknown_name():
    assert main(["figure", "fig9"]) == 2


def test_figure_negative_nmax_is_usage_error():
    assert main(["figure", "fig2", "--nmax", "-3"]) == 2
    assert main(["figure", "fig4", "--nmax", "-3"]) == 2


def test_nmax_past_the_largest_cutoff_is_usage_error(tmp_path):
    # refused by the parser, so nothing is computed and no file is written
    assert main(["figure", "fig2", "--nmax", "1000001", "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--protocol", "dual", "--alpha-min", "0.1", "--alpha-max", "0.5",
                 "--steps", "3", "--nmax", "1000001", "--out", str(tmp_path / "s.csv")]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    # 2 rows x 118 alpha x 10^6 levels: ~1.9 GB in the table alone
    ("figure", "fig2", "--nmax", "1000000"),
    # the modulated mass sums a (41, 1001, 1001) outcome grid
    ("sweep", "--protocol", "dual", "--alpha-min", "0.1", "--alpha-max", "1.2",
     "--steps", "41", "--nmax", "1000"),
    ("figure", "fig5", "--nmax", "200"),
    # counted before the grids are built: 10^11 alpha values alone would
    # take 745 GiB, and 10^8 |a1| values 800 MB as an array, more as floats
    ("sweep", "--protocol", "dual", "--alpha-min", "0.2", "--alpha-max", "0.4",
     "--steps", "100000000000"),
    ("sweep", "--protocol", "init_am_dual", "--alpha-min", "0.2", "--alpha-max", "0.4",
     "--steps", "2", "--a1-grid", "100000000"),
])
def test_curve_past_the_cell_bound_is_usage_error(argv, tmp_path):
    # refused before any table is built; under a 2 GiB address-space limit,
    # so a missing bound fails with a MemoryError instead of taking the
    # host's memory
    out = tmp_path / "s.csv" if argv[0] == "sweep" else tmp_path
    start = time.perf_counter()
    done = _run_python(
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, hard))\n"
        "from dvcv_teleport.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n", *argv, "--out", str(out))
    assert time.perf_counter() - start < 5
    assert done.returncode == 2, done.stderr
    assert "--nmax" in done.stderr and "cells" in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_curve_within_the_cell_bound_runs(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--protocol", "dual", "--alpha-min", "0.1", "--alpha-max", "1.2",
                 "--steps", "2", "--nmax", "1000", "--out", str(out)]) == 0
    assert len(read_csv(out)[1]) == 2


def test_non_finite_cell_is_a_numeric_guard(monkeypatch, tmp_path, capsys):
    # no real input writes a NaN cell, so a column function that does
    # stands in for one to reach the writer's finiteness gate
    columns, _, modes = cli.CURVES["init_am_single"]
    monkeypatch.setitem(cli.CURVES, "init_am_single", (
        columns, lambda table, l, k, a1s: (np.full(table.alpha.shape + (len(a1s),), np.nan),) * 2,
        modes))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--protocol", "init_am_single", "--alpha-min", "0.2",
                 "--alpha-max", "0.4", "--a1-abs", "0.8", "--steps", "2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert " is nan at alpha=" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, far, near", [
    # the (1,0) and (2,0) outcomes have a factor of ~1e200 and weight 0
    (("--protocol", "init_am_dual", "--a1-abs", "0.5"), "1e-100", "1e-8"),
    (("--protocol", "init_am_dual", "--a1-abs", "0.8"), "1e-100", "1e-8"),
    # the count-1 factor (1 - alpha^2) / alpha squares to inf; its weight
    # alpha^2, and so every demodulated column (each ~2 alpha^2), underflow to 0
    (("--protocol", "single"), "1e-300", "1e-100"),
    # c(0, n) underflows, so the factors of counts n > 0 are NaN (singular)
    # on a weight of 0
    (("--protocol", "init_am_single", "--a1-abs", "0.8"), "1e-300", "1e-8"),
    (("--protocol", "init_am_single", "--a1-abs", "0.8"), "1e-17", "1e-8"),
    (("--protocol", "init_am_single", "--a1-abs", "0.8"), "1e-100", "1e-8"),
])
def test_sweep_far_below_one_is_finite(argv, far, near, tmp_path):
    # q_swap gives 1 where A^2 overflows, not inf / inf = NaN, and a
    # singular outcome adds nothing, so each weight-0 contribution is 0 and
    # the cells match a nearer alpha's
    rows = []
    for lo in (far, near):
        out = tmp_path / f"{lo}.csv"
        assert main(["sweep", *argv, "--alpha-min", lo, "--alpha-max", lo.replace("1e", "1.5e"),
                     "--steps", "2", "--out", str(out)]) == 0
        rows.append([{k: v for k, v in r.items() if k != "alpha"} for r in read_csv(out)[1]])
    if "single" in argv:
        for column, cells in (("dp_swap", ["2e-200", "4.5e-200"]),
                              ("dp_disp_first", ["2e-200", "4.5e-200"]),
                              ("dp_disp_chain", ["2.00088296e-200", "4.50198666e-200"])):
            assert [r.pop(column) for r in rows[0]] == ["0", "0"]
            assert [r.pop(column) for r in rows[1]] == cells
    assert rows[0] == rows[1]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(protocol=st.sampled_from(cli.PROTOCOLS), exponent=st.floats(-300.0, 3.0),
       nmax=st.sampled_from(["20", "60"]))
def test_sweep_fuzz_writes_finite_cells_or_exits_3(protocol, exponent, nmax):
    # log-uniform alpha over every scale a float holds; the known exit 3
    # inputs are past the tail guard (alpha well above one) and init_am_dual
    # below ~1.5e-162, where its reference factor -alpha^2 underflows to -0
    lo = 10.0 ** exponent
    argv = ["sweep", "--protocol", protocol, "--alpha-min", repr(lo), "--alpha-max",
            repr(1.5 * lo), "--steps", "2", "--nmax", nmax]
    if protocol.startswith("init_am"):
        argv += ["--a1-abs", "0.8"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        out = Path(d) / "s.csv"
        code = main(argv + ["--out", str(out)])
        cells = [float(v) for r in read_csv(out)[1] for v in r.values()] if code == 0 else []
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert all(map(math.isfinite, cells))
    if protocol != "init_am_dual" and 1.5 * lo < 1.0:
        assert code == 0, err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(name=st.sampled_from(cli.FIGURES), nmax=st.sampled_from(["0", "2", "5", "20", "60"]),
       tail_tol=st.sampled_from(["0", "1e-300", "1e-10", "0.5"]),
       out=st.sampled_from(["new/nested", "dir", "file", "file/below"]))
def test_figure_fuzz_writes_one_finite_csv_or_nothing(name, nmax, tail_tol, out):
    # --out is a new nested directory, an existing directory, an existing
    # regular file or a path below one; the known exit 3 inputs drop more
    # than --tail-tol, down to a rounding loss of 2.2e-16 at --tail-tol 0
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        root = Path(d)
        (root / "dir").mkdir()
        (root / "file").write_text("")
        before = set(root.rglob("*"))
        code = main(["figure", name, "--nmax", nmax, "--tail-tol", tail_tol,
                     "--out", str(root / out)])
        made = set(root.rglob("*")) - before
        files = [path for path in made if path.is_file()]
        cells = [float(v) for path in files for r in read_csv(path)[1] for v in r.values()]
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    # a regular file cannot hold the bundle; any directory can
    assert code != (0 if out.startswith("file") else 2), err.getvalue()
    if code == 0:
        assert [path.name for path in files] == [f"{name}.csv"]
        assert cells and all(map(math.isfinite, cells))
    else:
        assert made == set()


def test_sweep_out_directory_is_usage_error(monkeypatch, tmp_path, capsys):
    def refused(*args):
        raise AssertionError("a table was built before the usage check")

    monkeypatch.setattr(displaced, "matrix_element_rows", refused)
    assert main(["sweep", "--protocol", "dual", "--alpha-min", "0.1",
                 "--alpha-max", "1.2", "--steps", "3", "--out", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("sweep", "--protocol", "dual", "--alpha-min", "0.1", "--alpha-max", "1.2",
     "--steps", "3", "--out", "{file}/x.csv"),
    ("figure", "fig4", "--out", "{file}"),
    ("verify", "--suite", "paper", "--config", "{missing}"),
])
def test_unwritable_out_or_unreadable_config_is_usage_error(argv, tmp_path, tmp_path_factory,
                                                            monkeypatch, capsys):
    # --out below a regular file cannot be made a directory; the config
    # file does not exist
    blocker = tmp_path_factory.mktemp("blocker") / "file"
    blocker.write_text("")
    argv = [a.format(file=blocker, missing=tmp_path / "missing.cfg") for a in argv]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(blocker if argv[0] != "verify" else tmp_path / "missing.cfg") in err
    assert list(tmp_path.iterdir()) == []
    assert list(blocker.parent.iterdir()) == [blocker]


def test_truncation_loss_past_tail_tol_is_a_numeric_guard(tmp_path):
    # --nmax 0 keeps only the n = 0 term; alpha = 5 needs far more than
    # the default 20 levels; row l = 2 loses 6.3e-10 at alpha = 1.5
    assert main(["figure", "fig2", "--nmax", "0", "--out", str(tmp_path)]) == 3
    far = ["sweep", "--protocol", "dual", "--alpha-min", "1", "--alpha-max", "5",
           "--steps", "5", "--out", str(tmp_path / "far.csv")]
    assert main(far) == 3
    assert not (tmp_path / "far.csv").exists()
    rows12 = ["sweep", "--protocol", "dual", "--l", "1", "--k", "2",
              "--alpha-min", "0.1", "--alpha-max", "1.5", "--steps", "5",
              "--out", str(tmp_path / "s12.csv")]
    assert main(rows12) == 3
    assert main(rows12 + ["--tail-tol", "1e-9"]) == 0


def test_figure_gnuplot_script(tmp_path):
    assert main(["figure", "fig4", "--out", str(tmp_path), "--gnuplot"]) == 0
    assert (tmp_path / "fig4.csv").exists()
    script = (tmp_path / "fig4.gp").read_text()
    assert "fig4.csv" in script and "plot" in script


def test_sweep_12_peak(tmp_path):
    out = tmp_path / "s12.csv"
    assert main(["sweep", "--protocol", "dual", "--l", "1", "--k", "2",
                 "--alpha-min", "0.1", "--alpha-max", "1.2", "--steps", "111",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    best = max(rows, key=lambda r: float(r["p_direct"]))
    assert abs(float(best["alpha"]) - 0.407) < 0.006
    assert abs(float(best["p_direct"]) - 0.24371) < 5e-4


def test_negativity_output(capsys):
    assert main(["negativity", "--beta", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.990799859" in out
    assert main(["negativity", "--beta", "-1"]) == 2


def test_oracle_runs(capsys):
    assert main(["oracle", "--alpha", "0.5", "--r", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "max corrected-state infidelity" in out
    assert main(["oracle", "--alpha", "0.5", "--r", "0.9"]) == 2
    # the regime ends at r = 0.3
    assert main(["oracle", "--alpha", "0.5", "--r", "0.3"]) == 0
    capsys.readouterr()
    assert main(["oracle", "--alpha", "0.5", "--r", repr(math.nextafter(0.3, 1.0))]) == 2
    assert capsys.readouterr().err == "error: --r must lie in (0, 0.3]\n"


@pytest.mark.parametrize("qubit", [
    ("--l", "0", "--k", "2"),  # l - k even
    ("--l", "-1"),
    ("--l", "1", "--k", "1"),
    ("--a0", "0", "--a1", "0"),  # zero norm
    ("--a0", "nan"),
    ("--a1", "inf"),
])
def test_oracle_malformed_qubit_is_usage_error(qubit, capsys):
    assert main(["oracle", "--alpha", "0.5", "--r", "0.1", *qubit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_oracle_strong_carrier_is_finite(capsys):
    # r = 0.01 needs beta ~ 50, where alpha^n overflows and F underflows
    assert main(["oracle", "--alpha", "0.5", "--r", "0.01"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",")[1:] for line in lines[2:-1]]
    assert len(rows) == 18
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    assert 0.0 < float(lines[-1].rsplit(":", 1)[1]) < 1e-3


@pytest.mark.parametrize("r", ["0.005", "0.002"])
def test_oracle_finest_reflectances_are_finite(r, capsys):
    # beta = 100 and 250: the circuit runs on the carriers' windows
    assert main(["oracle", "--alpha", "0.5", "--r", r]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",")[1:] for line in lines[2:-1]]
    assert len(rows) == 18
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    assert math.isfinite(float(lines[-1].rsplit(":", 1)[1]))


@pytest.mark.parametrize("slot,value,column", [
    (1, math.nan, "p_limit"), (2, -math.inf, "rel_err"), (3, math.inf, "infidelity")])
def test_oracle_refuses_a_non_finite_cell(slot, value, column, monkeypatch, capsys):
    # a NaN or inf cell is a numeric guard failure, named by its column,
    # before any line is printed
    circuit_vs_limit = protocol.circuit_vs_limit

    def spoiled(*args):
        beta, rows = circuit_vs_limit(*args)
        last = list(rows[-1])
        last[slot] = value
        return beta, [*rows[:-1], tuple(last)]

    monkeypatch.setattr(protocol, "circuit_vs_limit", spoiled)
    assert main(["oracle", "--alpha", "0.5", "--r", "0.2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"numeric guard: {column} is {value} at parity=")


def test_negativity_refuses_a_non_finite_cell(monkeypatch, capsys):
    monkeypatch.setattr(optics, "negativity", lambda channel: (0.99, math.nan))
    assert main(["negativity", "--beta", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric guard: numeric PPT is nan at beta=1")


def test_singular_factor_is_a_numeric_guard(tmp_path, monkeypatch, capsys):
    # at alpha = 1, c(1, 1) = 0 makes the (0, 1) amplitude factor singular
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DVCV_TELEPORT_OUT_DIR", raising=False)
    assert main(["oracle", "--alpha", "1.0", "--r", "0.1"]) == 3
    assert main(["sweep", "--protocol", "init_am_dual", "--alpha-min", "0.5",
                 "--alpha-max", "1.5", "--steps", "3", "--a1-abs", "0.3"]) == 3
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha-min=0.3\nalpha_max=0.5\nsteps=3\nprotocol=dual\n")
    out = tmp_path / "cfg.csv"
    assert main(["sweep", "--config", str(cfg), "--steps", "4",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 4  # explicit flag beats the config value
    assert float(rows[0]["alpha"]) == pytest.approx(0.3)


@pytest.mark.parametrize("spelling", ["--config", "--conf", "--c", "--config=", "--con="])
def test_config_read_under_every_spelling_argparse_accepts(spelling, tmp_path, capsys):
    # argparse takes any unambiguous prefix; only the exact --config was read
    def argv(path, *rest):
        flag = [spelling + str(path)] if spelling.endswith("=") else [spelling, str(path)]
        return ["negativity", *flag, *rest]

    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta=2\n")
    assert main(argv(cfg)) == 0
    got = capsys.readouterr().out
    assert main(["negativity", "--beta", "2"]) == 0
    assert got == capsys.readouterr().out
    missing = tmp_path / "missing.cfg"
    assert main(argv(missing, "--beta", "1")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err


@pytest.mark.parametrize("second", ["run.cfg", "missing.cfg"])
def test_a_second_config_is_refused(second, tmp_path, capsys):
    # the scan read the first --config while argparse kept the second
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta=2\n")
    assert main(["negativity", "--config", str(cfg), "--config", str(tmp_path / second),
                 "--beta", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DVCV_TELEPORT_OUT_DIR", str(tmp_path))
    assert main(["sweep", "--protocol", "dual", "--alpha-min", "0.4",
                 "--alpha-max", "0.5", "--steps", "2"]) == 0
    assert (tmp_path / "sweep_dual_01.csv").exists()


def test_verify_oracle_suite_exit_code():
    assert main(["verify", "--suite", "oracle"]) == 0


@pytest.mark.parametrize("suite", ["paper", "properties"])
def test_verify_suite_exit_code(suite, capsys):
    assert main(["verify", "--suite", suite]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cutoff_flags_only_where_read(capsys):
    # verify, negativity and oracle never read --nmax; verify and
    # negativity never read --tail-tol
    assert main(["verify", "--suite", "oracle", "--nmax", "0"]) == 2
    assert main(["negativity", "--beta", "1", "--nmax", "0"]) == 2
    assert main(["oracle", "--alpha", "0.5", "--r", "0.2", "--nmax", "0"]) == 2
    assert main(["verify", "--suite", "oracle", "--tail-tol", "1e-10"]) == 2
    assert main(["negativity", "--beta", "1", "--tail-tol", "1e-10"]) == 2
    capsys.readouterr()
    assert main(["oracle", "--alpha", "0.5", "--r", "0.2",
                 "--tail-tol", "1e-10"]) == 0
    assert "max corrected-state infidelity" in capsys.readouterr().out


def _run_python(code, *argv):
    src = str(Path(dvcv_teleport.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy():
    done = _run_python("import sys, dvcv_teleport.cli; print(*sys.modules)")
    assert done.returncode == 0, done.stderr
    assert [m for m in done.stdout.split() if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("argv", [
    ("oracle", "--alpha", "0.5", "--r", "0.05"),
    ("negativity", "--beta", "1"),
    ("verify", "--suite", "oracle"),
])
def test_commands_run_without_scipy(argv):
    # a None entry in sys.modules makes every scipy import raise ImportError
    done = _run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from dvcv_teleport.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "assert [m for m in sys.modules if m.split('.')[0] == 'scipy'] == ['scipy']\n"
        "assert sys.modules['scipy'] is None\n"
        "sys.exit(code)\n", *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize("argv, refusal", [
    (("oracle", "--alpha", "1e200", "--r", "0.1"), "photon-number cutoff"),
    (("negativity", "--beta", "1e200"), "photon-number cutoff"),
    (("oracle", "--alpha", "1e4", "--r", "0.1"), "photon-number cutoff"),
    (("negativity", "--beta", "1e4"), "photon-number cutoff"),
    # carriers within the cutoff, splitters past it: 5.8 GiB and ~24 TB of blocks
    (("oracle", "--alpha", "20", "--r", "0.3"), "beam splitter"),
    (("oracle", "--alpha", "100", "--r", "0.3"), "beam splitter"),
])
def test_unallocatable_input_is_a_numeric_guard(argv, refusal):
    # under a 2 GiB address-space limit, so a missing guard fails here with
    # a MemoryError instead of taking the host's memory (1e4 asks for 6-75 GB)
    done = _run_python(
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, hard))\n"
        "from dvcv_teleport.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n", *argv)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("numeric guard: ")
    assert refusal in done.stderr


@pytest.mark.parametrize("alpha, code", [("8.7", 0), ("9", 3)])
def test_oracle_splitter_bound_counts_every_block_column(alpha, code, capsys):
    # the circuit refuses by all its d3 block columns under four inputs,
    # though it builds only the columns its qubit modes occupy: alpha 8.7
    # fits that bound, alpha 9 (README's example) does not
    assert main(["oracle", "--alpha", alpha, "--r", "0.3"]) == code
    assert ("beam splitter" in capsys.readouterr().err) == (code == 3)
