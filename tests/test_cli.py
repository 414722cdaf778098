import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dvcv_teleport
from dvcv_teleport import demodulation as dm, displaced
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


def test_verify_properties_builds_one_table_per_alpha(monkeypatch, capsys):
    # one table per displacement for outcome completeness and the sign
    # rule: 222 coefficient tables from cold caches, not one per outcome
    dm._chain_table.cache_clear()
    dm._transition.cache_clear()
    built = []
    rows = displaced.matrix_element_rows

    def counted(*args):
        built.append(args[:2])
        return rows(*args)

    monkeypatch.setattr(displaced, "matrix_element_rows", counted)
    monkeypatch.setattr(dm, "matrix_element_rows", counted)
    assert main(["verify", "--suite", "properties"]) == 0
    capsys.readouterr()
    assert len(built) <= 222


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


def test_figure_unknown_name():
    assert main(["figure", "fig9"]) == 2


def test_figure_negative_nmax_is_usage_error():
    assert main(["figure", "fig2", "--nmax", "-3"]) == 2
    assert main(["figure", "fig4", "--nmax", "-3"]) == 2


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


def test_import_loads_no_scipy_solvers():
    # scipy.special (the log-space coherent row) is the one scipy part left
    src = str(Path(dvcv_teleport.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, dvcv_teleport.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60, check=True)
    solvers = {f"scipy.{p}" for p in ("optimize", "linalg", "sparse", "fft", "spatial")}
    loaded = [m for m in done.stdout.split() if ".".join(m.split(".")[:2]) in solvers]
    assert loaded == []
