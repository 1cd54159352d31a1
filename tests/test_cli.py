"""Command-line interface: exit codes, file outputs, config resolution."""
import hashlib

import numpy as np
import pytest

from advwave.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from advwave.core import DipoleParams, Event, FieldKind
from advwave.correlations import delta_expect_tensor, glauber_tensor


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


def test_figure_at_an_optical_ratio_writes_cycle_averages(tmp_path):
    import time

    start = time.perf_counter()
    assert run_cli("figure", "3", "--omega0-ratio", "1e8", "--out", str(tmp_path)) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    for name in ("fig3.csv", "fig3.svg"):
        assert (tmp_path / name).stat().st_size < 1_000_000
    meta, names, cols = read_csv(tmp_path / "fig3.csv")
    assert names == ["t_gamma"] + [f"{kind}_{curve}" for curve in ("dps", "dpvacs", "dptotal")
                                   for kind in ("avg", "lo", "hi")]
    assert "avg_" in meta["columns"] and "envelope" in meta["columns"]
    assert len(cols["t_gamma"]) == 2001
    assert all(np.all(np.isfinite(c)) for c in cols.values())
    assert meta["fit_column"] == "avg_dptotal"
    assert abs(float(meta["fit_slope_over_gamma"]) - 1.0) <= 0.02
    # the three fit lines stay the last lines of the table
    tail = (tmp_path / "fig3.csv").read_text().splitlines()[-3:]
    assert [line.split(" = ")[0] for line in tail] == ["# fit_window_gamma",
                                                       "# fit_slope_over_gamma",
                                                       "# fit_intercept"]
    assert np.all(cols["lo_dptotal"] <= cols["avg_dptotal"])
    assert np.all(cols["avg_dptotal"] <= cols["hi_dptotal"])
    assert (tmp_path / "fig3.svg").read_text().count("<polyline") == 5


def test_figure_columns_follow_the_grid_step(tmp_path):
    # 64 points per period while that fits in 65 536 rows, else 2 001 points;
    # raw columns only where the step is at most 1/16 period, for --points too
    def columns(*argv):
        assert run_cli("figure", "1", *argv, "--out", str(tmp_path)) == EXIT_OK
        _, names, cols = read_csv(tmp_path / "fig1.csv")
        return names, len(cols["t_gamma"])

    raw = ["t_gamma", "n_dps", "n_dpvacs", "n_dptotal"]
    assert columns() == (raw, 613)
    assert columns("--omega0-ratio", "1000") == (raw, 61_117)
    names, rows = columns("--omega0-ratio", "1100")
    assert rows == 2001 and names[1:4] == ["avg_dps", "lo_dps", "hi_dps"]
    assert columns("--omega0-ratio", "1100", "--points", "16808")[0] == raw    # step just below P/16
    assert columns("--omega0-ratio", "1100", "--points", "16807")[0] == names  # just above


def test_figure_rejects_window_shorter_than_onset(tmp_path, capsys):
    code = run_cli("figure", "1", "--tmax-gamma", "0.5", "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert "onset" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (("--tmax-gamma", "8"), "fit window must start"),   # window [4, 8]/gamma starts too early
    (("--points", "5"), "fewer than 10 grid points"),
])
def test_figure3_failing_fit_writes_nothing(argv, message, tmp_path, capsys):
    assert run_cli("figure", "3", *argv, "--out", str(tmp_path)) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "fig3.csv").exists()
    assert not (tmp_path / "fig3.svg").exists()


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
        ev_i, ev_j = Event(ts[i], x), Event(ts[j], x)
        c = np.trace(glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev_i, ev_j, params)
                     + delta_expect_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev_i, ev_j, params))
        for col, ref in (("re_c", c.real), ("im_c", c.imag)):
            assert abs(cols[col][4 * i + j] - ref) <= 1e-14 * np.max(np.abs(cols[col]))


def test_corr_stays_finite_at_late_times(tmp_path):
    # past gamma t = 709 a lone e^{gamma t} overflows; at 3000 so would the
    # growing factor of the entries behind shut gates, u - v up to 3000 / gamma
    for tmax, points in (("800", "81"), ("3000", "3")):
        assert run_cli("corr", "--tmax-gamma", tmax, "--points", points,
                       "--out", str(tmp_path)) == EXIT_OK
        _, names, cols = read_csv(tmp_path / "corr.csv")
        assert all(np.all(np.isfinite(cols[n])) for n in names)


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


def test_detect_runs_at_optical_frequency(tmp_path):
    # closed-form rates: the cost no longer grows with omega0/gamma
    assert run_cli("detect", "--omega0-ratio", "1e8", "--points", "50",
                   "--out", str(tmp_path)) == EXIT_OK
    meta, names, cols = read_csv(tmp_path / "detect.csv")
    assert len(cols["t_gamma"]) == 50
    assert all(np.all(np.isfinite(cols[n])) for n in names)
    early = cols["t_gamma"] < float(meta["onset_t_gamma"])
    assert np.all(cols["rate_c"][early] == cols["rate_g"][early])
    assert 0.0 < float(meta["max_interference_ratio"]) < 1e-6


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


def test_validate_draws_the_same_working_points_every_run(tmp_path, capsys):
    # the random rows draw from a fixed-seed stream: a rerun rewrites the same bytes
    argv = ("validate", "--full", "--count", "50", "--out", str(tmp_path))
    texts = []
    for _ in range(2):
        run_cli(*argv)
        texts.append((tmp_path / "validate.txt").read_bytes())
    assert texts[0] == texts[1]
    assert b"sphere-quadrature" in texts[0] and b"commutator-reconstruction" in texts[0]


def test_validate_reruns_after_another_comb_write_the_same_bytes(tmp_path, capsys):
    # one process runs count 200, then 400, then 200 again: what a comb
    # shares across its rows never reaches another run's table
    texts = []
    for count in ("200", "400", "200"):
        out = tmp_path / count / str(len(texts))
        assert run_cli("validate", "--full", "--count", count, "--out", str(out)) == EXIT_OK
        texts.append([line for line in (out / "validate.txt").read_bytes().splitlines()
                      if not line.startswith(b"# out = ")])
    assert texts[0] == texts[2]
    assert texts[0] != texts[1]


def test_validate_measures_the_markov_row_on_a_comb_under_one_period(tmp_path, capsys):
    # a band of one gamma puts the packet's t' step at 1.1 sigma: coarse, but
    # the row measures the mass rather than refusing the packet
    run_cli("validate", "--full", "--count", "4", "--span", "1", "--out", str(tmp_path))
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("markov-mass"))
    assert "failed" not in row and np.isfinite(float(row.split()[2]))


def test_validate_passes_at_an_optical_ratio(tmp_path, capsys):
    argv = ("validate", "--full", "--count", "200", "--omega0-ratio", "1e8")
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
    assert "all 9 checks passed" in capsys.readouterr().out
    # a comb too narrow for the dynamics still fails the kernel-mass row
    assert run_cli(*argv, "--span", "10", "--out", str(tmp_path)) == EXIT_VALIDATION
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("markov-mass"))
    assert "FAIL" in row


def test_validate_runs_with_the_comb_just_above_zero_frequency(tmp_path, capsys):
    # the default span of 50 gamma fits below omega0 = 26 gamma on both sides
    assert run_cli("validate", "--omega0-ratio", "26", "--out", str(tmp_path)) == EXIT_OK
    assert "all 8 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--count", "1"), ("--count", "0"), ("--count", "-3"),
                                        ("--span", "nan"), ("--span", "inf"), ("--span", "0"),
                                        ("--span", "-50"), ("--span", "200"),
                                        ("--omega0-ratio", "10")])
def test_validate_rejects_bad_oracle_sizes(flag, value, tmp_path, capsys):
    assert run_cli("validate", flag, value, "--out", str(tmp_path)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""      # no check ran
    assert captured.err.count("\n") == 1 and flag[2:] in captured.err
    assert not (tmp_path / "validate.txt").exists()


def test_usage_errors():
    assert run_cli("figure", "5") == EXIT_USAGE          # not a known figure
    assert run_cli("power", "bogus") == EXIT_USAGE
    assert run_cli("no-such-command") == EXIT_USAGE
    assert run_cli("figure", "1", "--points", "1") == EXIT_USAGE
    assert run_cli("power", "pert", "--gamma", "-3") == EXIT_USAGE


def test_figure_rejects_an_overflowing_omega0(capsys):
    assert run_cli("figure", "1", "--omega0-ratio", "1e300") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "omega0" in err and "too large" in err


@pytest.mark.parametrize("argv", [("power", "pert"), ("figure", "1"), ("detect",)])
def test_an_underflowing_omega0_is_a_usage_error(argv, capsys, tmp_path):
    # gamma = 1e-111 puts omega0 near 1e-109, whose cube is 0.0 in a double
    assert run_cli(*argv, "--gamma", "1e-111", "--out", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "omega0" in err and "too small" in err


@pytest.mark.parametrize("argv,setting", [
    (("detect", "--r0-gamma", "1e200"), "r0 = 1e+192 is too large: r0^3 overflows"),
    (("corr", "--r0-gamma", "1e200"), "r0 = 1e+192 is too large: r0^3 overflows"),
    (("validate", "--r0-gamma", "1e200"), "r0 = 1e+200 is too large: r0^3 overflows"),
    (("figure", "3", "--tmax-gamma", "1e300"), "tmax_gamma = 1e+300 is too large for the late-time fit"),
    # r0^3 is a float, but the square of the near field is not
    (("detect", "--r0-gamma", "1e-90"), "r0 = 1e-98 is too small: its near field"),
    (("corr", "--r0-gamma", "1e-90", "--points", "5"), "r0 = 1e-98 is too small: its near field"),
    # carrier phases 2 omega0 t past 2^53 rad
    (("figure", "1", "--tmax-gamma", "1e200"), "tmax_gamma = 1e+200 is too large: the carrier phase"),
    (("figure", "2", "--tmax-gamma", "1e200"), "tmax_gamma = 1e+200 is too large: the carrier phase"),
    (("detect", "--tmax-gamma", "1e200"), "tmax_gamma = 1e+200 is too large: the carrier phase"),
])
def test_out_of_range_distances_and_windows_are_usage_errors(argv, setting, capsys, tmp_path):
    # r0^3 or the square of the near field leaves the float range (the near
    # field goes as 1/r0^3), the figure-3 fit would square times near 1e292 s,
    # or a carrier phase passes 2^53 rad; RuntimeWarnings are errors here, so
    # none may reach numpy first
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and setting in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [("figure", "2"), ("detect",)])
def test_the_longest_windows_below_the_carrier_limit_still_run(argv, tmp_path):
    # 2 omega0 t = 9.0e15 rad, just below 2^53 = 9.007e15, at omega0/gamma = 100
    assert run_cli(*argv, "--tmax-gamma", "4.5e13", "--out", str(tmp_path)) == EXIT_OK


@pytest.mark.parametrize("argv,rows", [
    (("figure", "1", "--points", "3000000"), "3,000,000"),
    (("corr", "--points", "2000"), "4,000,000"),                  # points^2 cells
    (("detect", "--points", "3000000"), "3,000,000"),
    (("power", "nonpert", "--points", "3000000"), "3,000,000"),
])
def test_oversized_grids_are_refused_before_allocating(argv, rows, monkeypatch, capsys, tmp_path):
    import time

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    start = time.perf_counter()
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_USAGE
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"needs {rows} rows" in err and "2,000,000" in err


def test_validate_refuses_an_oversized_count_before_any_check(monkeypatch, capsys, tmp_path):
    import advwave.cli
    from advwave.oracle import _SECTOR_DIM_BUDGET

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(advwave.cli, "_run_checks", no_check)
    monkeypatch.setattr(np, "arange", no_check)
    assert run_cli("validate", "--count", str(_SECTOR_DIM_BUDGET), "--out", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "count must be <= 1,999,999" in err
    assert not list(tmp_path.iterdir())


def test_validate_full_runs_at_count_2000_and_records_the_volterra_grid(tmp_path, capsys):
    # the two-excitation row builds no pair sector (2 001 000 states at count
    # 2 000); its note records the Volterra base grid and the last correction
    assert run_cli("validate", "--full", "--count", "2000", "--out", str(tmp_path)) == EXIT_OK
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("oracle-minus-plus"))
    assert "PASS" in row and "(count=2000 span=50, volterra base=28 steps, richardson=" in row


def test_common_flags_belong_to_the_subcommand(tmp_path, capsys):
    flags = ("--omega0-ratio", "1e3", "--points", "11")
    assert run_cli(*flags, "figure", "2", "--out", str(tmp_path / "a")) == EXIT_USAGE
    assert not (tmp_path / "a").exists()
    assert run_cli("figure", "2", *flags, "--out", str(tmp_path / "b")) == EXIT_OK
    meta, _, cols = read_csv(tmp_path / "b" / "fig2.csv")
    assert meta["omega0_over_gamma"] == "1000" and meta["points"] == "11"
    assert len(cols["t_gamma"]) == 11


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


@pytest.mark.parametrize("argv,code,message", [
    (("--omega0-ratio", "1e8", "figure", "3"), EXIT_USAGE, "--omega0-ratio comes before the command"),
    (("--out", "X", "validate"), EXIT_USAGE, "--out comes before the command"),
    (("--points=11", "corr"), EXIT_USAGE, "--points=11 comes before the command"),
    (("no-such-command",), EXIT_USAGE, "invalid choice: 'no-such-command'"),
    (("--help",), EXIT_OK, ""),
])
def test_flags_follow_the_command(argv, code, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert message in err
    if "before the command" in message:  # one line stating the rule, not argparse's guess
        assert err.count("\n") == 1 and "flags follow the command" in err
    assert not list(tmp_path.iterdir())   # nothing ran, so nothing was written


def test_validate_txt_records_the_resolved_config(tmp_path, capsys):
    argv = ("validate", "--omega0-ratio", "1e8", "--count", "200", "--out", str(tmp_path))
    assert run_cli(*argv) == EXIT_OK
    out = capsys.readouterr().out
    text = (tmp_path / "validate.txt").read_text()
    header = [line for line in text.splitlines() if line.startswith("#")]
    meta = dict(line[1:].split(" = ", 1) for line in header)
    meta = {k.strip(): v for k, v in meta.items()}
    assert meta["omega0_over_gamma"] == "100000000"
    assert meta["count"] == "200" and meta["span"] == "50" and meta["full"] == "false"
    assert meta["out"] == str(tmp_path) and "advwave_version" in meta
    # the header comes first, then exactly the table that went to stdout
    assert text == "".join(line + "\n" for line in header) + out
    assert "#" not in out
    assert text.splitlines()[-1] == "all 8 checks passed"


def test_successive_calls_in_one_process_match_separate_calls(tmp_path, capsys):
    # main() builds its parser once per process: no default or namespace of one
    # command may reach the next
    from advwave import cli

    commands = [("figure", "3"), ("corr", "--points", "5"),
                ("validate", "--count", "4", "--span", "1"), ("figure", "3")]

    def run_all(fresh):
        written = []
        for i, argv in enumerate(commands):
            if fresh:
                cli._build_parser.cache_clear()  # as a new process would start
            out = tmp_path / str(i)
            code = run_cli(*argv, "--out", str(out))
            written.append((code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        return written

    separate = run_all(fresh=True)
    cli._build_parser.cache_clear()
    together = run_all(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert together == separate
    assert [code for code, _ in separate] == [EXIT_OK, EXIT_OK, EXIT_VALIDATION, EXIT_OK]
    capsys.readouterr()


# SHA-256 of each default table and plot, with its "# out = ..." line dropped.
# A change that moves a value moves its digest; a refactor that promises the
# same bytes keeps them all.
DEFAULT_DIGESTS = {
    "figure-1/fig1.csv": "dc97a6a8777f08bcb71edbebc61dfe9c542d00d070093058103ebb82282d52ac",
    "figure-1/fig1.svg": "4a954625a06336554d11043d1c01e3ef4c78a03ba18cfec0a6f42307f7a05843",
    "figure-2/fig2.csv": "abf50ff574b9cca26b1510bf9996a7626a749ddfad6320c571f6e76d9d317dda",
    "figure-2/fig2.svg": "e5b46eb7fe2f8ec99703c366e915bbdcd658fc2ea43a4dbb8615a08c8c24b1ed",
    "figure-3/fig3.csv": "687d9ed853a7f5beb5eb3e1e33242b1647de5418f5b7180309261966eaf63984",
    "figure-3/fig3.svg": "f921d54cf93b777ffa52376e1c3e1f539068df8b7ec0c300ad7e732a18a13d3c",
    "power-pert/power.csv": "288113d6cc9acf1974b916f4f8e145d155d2348f794a154f6be811004c60f3b2",
    "power-nonpert/power.csv": "49a5c1afc38f47d2b7218aff57edd3fafcaf29a8a3bd980dd25556d40e988bbb",
    "corr/corr.csv": "3337552f8ec025590941d9a4c0aab97a19fd867f83b09e03494c4eaf329a5a6d",
    "detect/detect.csv": "0ab136f796af401dfaf1111f13e9e560b22c054ad3a411ef1797ccf3f4fd57f8",
    "detect/detect.svg": "2cd143ae21cf7958b9410542402558c7411b68425bf22626dad9315adffc46ac",
}


def test_default_tables_keep_their_bytes(tmp_path):
    written = {}
    for command in ("figure 1", "figure 2", "figure 3", "power pert", "power nonpert", "corr", "detect"):
        out = tmp_path / command.replace(" ", "-")
        assert run_cli(*command.split(), "--out", str(out)) == EXIT_OK
        for path in out.iterdir():
            lines = path.read_bytes().splitlines(keepends=True)
            body = b"".join(line for line in lines if not line.startswith(b"# out = "))
            written[f"{out.name}/{path.name}"] = hashlib.sha256(body).hexdigest()
    assert written == DEFAULT_DIGESTS
