"""Command-line interface: exit codes, file outputs, config resolution."""
import numpy as np
import pytest

from advwave.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from advwave.core import DipoleParams, Event, FieldKind
from advwave.correlations import c_tensor


def run_cli(*argv):
    # argparse bails out of bad usage via SystemExit; fold that into the code
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code)


def read_csv(path):
    meta, names, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif names is None:
            names = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows)
    cols = {n: data[:, i] for i, n in enumerate(names)} if rows else {}
    return meta, names, cols


def test_figure1_outputs(tmp_path):
    # 500 points keeps 40+ samples per optical period at omega0 = 10 gamma
    assert run_cli("figure", "1", "--points", "500", "--out", str(tmp_path)) == EXIT_OK
    meta, names, cols = read_csv(tmp_path / "fig1.csv")
    assert names == ["t_gamma", "n_dps", "n_dpvacs", "n_dptotal"]
    assert meta["figure"] == "1"
    assert meta["omega0_over_gamma"] == "10"
    assert len(cols["t_gamma"]) == 500
    assert cols["t_gamma"][0] == 0.0
    assert cols["t_gamma"][-1] == pytest.approx(6.0, rel=1e-14)
    np.testing.assert_allclose(cols["n_dptotal"],
                               cols["n_dps"] + cols["n_dpvacs"], rtol=1e-12)
    svg = (tmp_path / "fig1.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<polyline") == 3


def test_figure_output_is_deterministic(tmp_path):
    # rerun with identical config into the same directory (the resolved output
    # path is part of the CSV header, so the directory must match too)
    args = ("figure", "2", "--tmax-gamma", "2", "--points", "1500",
            "--out", str(tmp_path))
    assert run_cli(*args) == EXIT_OK
    first_csv = (tmp_path / "fig2.csv").read_bytes()
    first_svg = (tmp_path / "fig2.svg").read_bytes()
    run_cli(*args)
    assert (tmp_path / "fig2.csv").read_bytes() == first_csv
    assert (tmp_path / "fig2.svg").read_bytes() == first_svg


def test_figure3_records_longtime_fit(tmp_path):
    assert run_cli("figure", "3", "--out", str(tmp_path)) == EXIT_OK
    meta, _, _ = read_csv(tmp_path / "fig3.csv")
    assert meta["fit_window_gamma"] == "[10, 20]"
    slope = float(meta["fit_slope_over_gamma"])
    assert slope == pytest.approx(1.0, rel=0.02)
    assert float(meta["fit_intercept"]) > 0.0


def test_figure_rejects_window_shorter_than_onset(tmp_path, capsys):
    code = run_cli("figure", "1", "--tmax-gamma", "0.5", "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert "onset" in capsys.readouterr().err


def test_power_pert_single_row(tmp_path):
    assert run_cli("power", "pert", "--out", str(tmp_path)) == EXIT_OK
    meta, names, cols = read_csv(tmp_path / "power.csv")
    assert names == ["p_g", "p_s", "p_vacs", "p_total"]
    assert meta["model"] == "pert"
    # default working point gamma = 1e8, omega0 = 100 gamma: omega0*gamma = 1e18.
    # The four entries come from independent derivations, so agreement is to
    # rounding, not bitwise.
    assert cols["p_total"][0] == pytest.approx(1e18, rel=1e-12)
    assert cols["p_total"][0] == pytest.approx(2.0 * cols["p_g"][0], rel=1e-12)
    assert cols["p_s"][0] + cols["p_vacs"][0] == pytest.approx(cols["p_total"][0], rel=1e-12)


def test_power_nonpert_curves(tmp_path):
    assert run_cli("power", "nonpert", "--points", "9", "--out", str(tmp_path)) == EXIT_OK
    _, names, cols = read_csv(tmp_path / "power.csv")
    assert names == ["t_gamma", "p_g", "p_s", "p_vacs", "p_total"]
    assert len(cols["t_gamma"]) == 9
    assert cols["p_total"][0] == 1e18          # undecayed emitter at t_ret = 0
    assert np.all(np.diff(cols["p_total"]) < 0.0)
    np.testing.assert_array_equal(cols["p_total"], 2.0 * cols["p_g"])


def test_corr_grid(tmp_path):
    assert run_cli("corr", "--points", "4", "--tmax-gamma", "3",
                   "--out", str(tmp_path)) == EXIT_OK
    meta, names, cols = read_csv(tmp_path / "corr.csv")
    assert names == ["t_gamma", "tp_gamma", "re_g", "im_g",
                     "re_delta", "im_delta", "re_c", "im_c"]
    assert len(cols["t_gamma"]) == 16
    assert float(meta["gate_tp_minus_t_gamma"]) == pytest.approx(2.0 / 3.0)
    diag = cols["t_gamma"] == cols["tp_gamma"]
    assert np.all(cols["re_delta"][diag] == 0.0)
    assert np.all(cols["im_delta"][diag] == 0.0)
    # inside the gate the total is the normal-ordered piece alone
    gated = np.abs(cols["tp_gamma"] - cols["t_gamma"]) < 2.0 / 3.0
    np.testing.assert_array_equal(cols["re_c"][gated], cols["re_g"][gated])
    # cells against the per-pair tensor path at the default gamma = 1e8 / s
    gamma = 1e8
    params = DipoleParams.from_rates(100.0 * gamma, gamma)
    x = np.array([1.0 / 3.0 / gamma, 0.0, 0.0])
    ts = np.linspace(0.0, 3.0 / gamma, 4)
    for i, j in ((0, 0), (1, 1), (0, 3), (3, 0), (2, 3)):
        c = c_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, Event(ts[i], x), Event(ts[j], x),
                     params).trace
        for col, ref in (("re_c", c.real), ("im_c", c.imag)):
            assert abs(cols[col][4 * i + j] - ref) <= 1e-14 * np.max(np.abs(cols[col]))


def test_detect_outputs(tmp_path):
    assert run_cli("detect", "--points", "40", "--tmax-gamma", "5",
                   "--out", str(tmp_path)) == EXIT_OK
    meta, names, cols = read_csv(tmp_path / "detect.csv")
    assert names == ["t_gamma", "rate_g", "rate_c", "diff"]
    ratio = float(meta["max_interference_ratio"])
    assert 0.0 < ratio < 1.0
    onset = float(meta["onset_t_gamma"])
    early = cols["t_gamma"] < onset
    assert np.all(cols["diff"][early] == 0.0)
    assert np.any(cols["diff"][~early] != 0.0)
    assert (tmp_path / "detect.svg").exists()


def test_validate_passes_at_default_resolution(tmp_path, capsys):
    assert run_cli("validate", "--out", str(tmp_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "all 8 checks passed" in out
    report = (tmp_path / "validate.txt").read_text()
    assert "FAIL" not in report
    assert "oracle-sigma-z" in report and "markov-mass" in report


def test_validate_flags_an_underresolved_grid(tmp_path, capsys):
    code = run_cli("validate", "--count", "50", "--out", str(tmp_path))
    assert code == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL" in out and "checks failed" in out
    assert "FAIL" in (tmp_path / "validate.txt").read_text()


def test_usage_errors():
    assert run_cli("figure", "5") == EXIT_USAGE          # not a known figure
    assert run_cli("power", "bogus") == EXIT_USAGE
    assert run_cli("no-such-command") == EXIT_USAGE
    assert run_cli("figure", "1", "--points", "1") == EXIT_USAGE
    assert run_cli("power", "pert", "--gamma", "-3") == EXIT_USAGE


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    import advwave.cli

    def exhausted(cfg):
        raise MemoryError("Unable to allocate 4.9 GiB")

    monkeypatch.setattr(advwave.cli, "cmd_corr", exhausted)
    assert run_cli("corr") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "out of memory" in err and "4.9 GiB" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "tmax_gamma = 3.0\n"
        "points = 7   # inline comment\n"
    )
    out = tmp_path / "run"
    assert run_cli("power", "nonpert", "--config", str(cfgfile),
                   "--tmax-gamma", "5", "--out", str(out)) == EXIT_OK
    meta, _, cols = read_csv(out / "power.csv")
    assert meta["tmax_gamma"] == "5"    # flag beats config file
    assert meta["points"] == "7"        # config file beats command default
    assert len(cols["t_gamma"]) == 7
    assert cols["t_gamma"][-1] == 5.0


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    assert run_cli("power", "pert", "--config", str(bad)) == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err

    bad.write_text("gamma ten\n")
    assert run_cli("power", "pert", "--config", str(bad)) == EXIT_USAGE
    assert "expected 'key = value'" in capsys.readouterr().err

    missing = tmp_path / "nope.cfg"
    assert run_cli("power", "pert", "--config", str(missing)) == EXIT_IO
    assert "cannot read config file" in capsys.readouterr().err


def test_thread_cap_env(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("ADVWAVE_THREADS", "3")
    import os

    assert run_cli("power", "pert", "--out", str(tmp_path)) == EXIT_OK
    assert os.environ["OMP_NUM_THREADS"] == "3"

    monkeypatch.setenv("ADVWAVE_THREADS", "zero")
    assert run_cli("power", "pert", "--out", str(tmp_path)) == EXIT_USAGE
