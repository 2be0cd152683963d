import csv
import datetime as dt
import json
import statistics
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from perfbench.generators import H_TRUE, write_tick_csv
from roughscale import cli, pipeline
from roughscale.cli import main
from roughscale.market_data import date_to_epoch_seconds
from roughscale.mfdfa import MfdfaConfig, fluctuation_function, generalized_hurst
from roughscale.scaling import FrequencySweep, fit_ansatz
from roughscale.synthetic import generate_cascade, generate_fgn, generate_sv_days

DAY0 = dt.date(2014, 1, 2)


def write_tick_fixture(path, days=3, seed=0, step_minutes=1):
    rng = np.random.default_rng(seed)
    t0 = date_to_epoch_seconds(DAY0)
    minutes = days * 1440 // step_minutes
    prices = 100 * np.exp(np.cumsum(rng.normal(0, 1e-3, minutes)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, p in enumerate(prices):
            writer.writerow([t0 + i * 60 * step_minutes, f"{p:.6f}", "1.0"])
    return path


def write_gappy_fixture(path):
    """Five days of minute ticks, except that day 1 has no trade and day 2
    trades only in its first three hours (coverage 3/24 at delta 60)."""
    t0 = date_to_epoch_seconds(DAY0)
    minutes = [d * 1440 + m for d in (0, 2, 3, 4) for m in range(1440 if d != 2 else 180)]
    prices = 100 * np.exp(np.cumsum(np.random.default_rng(1).normal(0, 1e-3, len(minutes))))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([t0 + 60 * m, f"{p:.6f}"] for m, p in zip(minutes, prices))
    return path


class TestSynthCommand:
    def test_fgn_csv(self, tmp_path):
        out = tmp_path / "fgn.csv"
        rc = main(["synth", "--kind", "fgn", "--h", "0.3", "--len", "1024",
                   "--seed", "42", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "value"
        assert len(rows) == 1025

    def test_cascade_csv(self, tmp_path):
        out = tmp_path / "cas.csv"
        rc = main(["synth", "--kind", "cascade", "--p", "0.6", "--levels", "8",
                   "--out", str(out)])
        assert rc == 0
        values = [float(r) for r in out.read_text().strip().splitlines()[1:]]
        assert sum(values) == pytest.approx(1.0)

    def test_bad_arguments_exit_1(self, tmp_path):
        rc = main(["synth", "--kind", "fgn", "--h", "0.3", "--len", "1000",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_each_kind_matches_its_generator(self, tmp_path):
        cases = [(["--kind", "fgn", "--hurst", "0.4", "--len", "1024", "--seed", "1"],
                  generate_fgn(0.4, 1024, 1)),
                 (["--kind", "cascade", "--p", "0.6", "--levels", "8", "--seed", "5"],
                  generate_cascade(0.6, 8)),
                 (["--kind", "sv_day", "--n", "24", "--sigma", "0.1", "--seed", "2"],
                  generate_sv_days(1, 24, 0.1, 2)[0])]
        out = tmp_path / "x.csv"
        for flags, want in cases:
            assert main(["synth", *flags, "--out", str(out)]) == 0
            got = [float(r) for r in out.read_text().splitlines()[1:]]
            np.testing.assert_array_equal(got, want)

    def test_unknown_kind_exit_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "ou", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1
        assert "invalid choice: 'ou'" in capsys.readouterr().err


class TestMfdfaCommand:
    def test_curve_output(self, tmp_path):
        series = tmp_path / "series.csv"
        main(["synth", "--kind", "fgn", "--h", "0.5", "--len", "4096",
              "--seed", "7", "--out", str(series)])
        out = tmp_path / "curve.csv"
        surface = tmp_path / "surface.csv"
        rc = main(["mfdfa", "--series", str(series), "--q-list=-2,0,2",
                   "--out", str(out), "--surface-out", str(surface)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["q"] for r in rows] == ["-2.0", "0.0", "2.0"]
        h2 = float(rows[2]["h"])
        assert h2 == pytest.approx(0.5, abs=0.06)
        surf_rows = list(csv.DictReader(surface.open()))
        assert {r["q"] for r in surf_rows} == {"-2.0", "0.0", "2.0"}

    def test_fit_min_or_max_alone_keeps_the_other_end_of_the_grid(self, tmp_path):
        x = generate_fgn(0.3, 2048, 5)
        series = tmp_path / "series.csv"
        series.write_text("\n".join(map(repr, x.tolist())) + "\n")
        scales = [10, 20, 40, 80, 160, 320]
        out = tmp_path / "curve.csv"
        for flag, fit_range in (("--fit-min=20", (20, 320)), ("--fit-max=160", (10, 160))):
            assert main(["mfdfa", "--series", str(series), "--q-list=2", "--scales",
                         ",".join(map(str, scales)), flag, "--out", str(out)]) == 0
            config = MfdfaConfig([2.0], scales, fit_range=fit_range)
            want = generalized_hurst(fluctuation_function(x, config))
            assert float(next(csv.DictReader(out.open()))["h"]) == want.h_values[0]

    def test_numeric_failure_exit_3(self, tmp_path):
        series = tmp_path / "zeros.csv"
        series.write_text("value\n" + "0.0\n" * 200)
        rc = main(["mfdfa", "--series", str(series), "--out",
                   str(tmp_path / "c.csv")])
        assert rc == 3


    def test_series_byte_order_mark_is_not_data(self, tmp_path):
        # the mark would make the first value read as a header and be skipped
        series = tmp_path / "series.csv"
        series.write_bytes(b"\xef\xbb\xbf0.5\n0.25\n0.125\n")
        assert cli._read_series_csv(str(series)).tolist() == [0.5, 0.25, 0.125]

    def test_header_after_blank_lines_is_a_header(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("\n  \nvalue\n0.5\n\n0.25\n")
        assert cli._read_series_csv(str(series)).tolist() == [0.5, 0.25]


class TestFitAnsatzCommand:
    def test_exact_sweep(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        with sweep.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta", "h2"])
            for d in (1, 2, 5, 10, 60, 288, 1440):
                n = 1440 / d
                writer.writerow([d, repr(0.13 * n / (n + 3.0))])
        out = tmp_path / "fit.json"
        rc = main(["fit-ansatz", "--sweep", str(sweep), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["h0"] == pytest.approx(0.13, abs=1e-6)
        assert doc["a"] == pytest.approx(3.0, abs=1e-5)
        assert doc["excluded"] == []
        rc = main(["fit-ansatz", "--sweep", str(sweep), "--exclude", "30,60,30",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["excluded"] == [60]

    def test_too_few_points_exit_3(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("delta,h2\n5,0.1\n10,0.1\n")
        rc = main(["fit-ansatz", "--sweep", str(sweep), "--out", "-"])
        assert rc == 3

    def test_weighted_exactly_when_the_sweep_has_stderrs(self, tmp_path):
        deltas = np.array([1, 2, 5, 10, 30, 60, 288, 1440])
        n = 1440 / deltas
        h2 = 0.13 * n / (n + 3.0) + 0.002 * (-1.0) ** np.arange(len(deltas))
        stderr = 0.01 * np.arange(1, len(deltas) + 1)
        docs = []
        for se in (stderr, None):
            sweep = tmp_path / "sweep.csv"
            with sweep.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["delta", "h2"] if se is None else ["delta", "h2", "stderr"])
                for i, d in enumerate(deltas.tolist()):
                    writer.writerow([d, repr(float(h2[i]))]
                                    + ([] if se is None else [repr(float(se[i]))]))
            out = tmp_path / "fit.json"
            assert main(["fit-ansatz", "--sweep", str(sweep), "--out", str(out)]) == 0
            fit = fit_ansatz(FrequencySweep(deltas=deltas, h2=h2, h2_stderr=se))
            doc = json.loads(out.read_text())
            assert doc == {"h0": fit.h0, "a": fit.a, "h0_stderr": fit.h0_stderr,
                           "a_stderr": fit.a_stderr, "residual_rms": fit.residual_rms,
                           "excluded": [], "boundary_warning": fit.boundary_warning}
            docs.append(doc)
        assert docs[0]["h0"] != docs[1]["h0"]  # the stderrs did weight the first fit

    def test_sweep_byte_order_mark_is_not_data(self, tmp_path):
        # without a header row, the mark would drop the first row, delta 1
        deltas = np.array([1, 2, 5, 10, 30, 60, 288, 1440])
        n = 1440 / deltas
        h2 = 0.13 * n / (n + 3.0) + 0.002 * (-1.0) ** np.arange(len(deltas))
        sweep = tmp_path / "sweep.csv"
        sweep.write_bytes(b"\xef\xbb\xbf" + "".join(
            f"{d},{h!r}\n" for d, h in zip(deltas.tolist(), h2.tolist())).encode())
        out = tmp_path / "fit.json"
        assert main(["fit-ansatz", "--sweep", str(sweep), "--out", str(out)]) == 0
        fit = fit_ansatz(FrequencySweep(deltas=deltas, h2=h2))
        doc = json.loads(out.read_text())
        assert (doc["h0"], doc["a"]) == (fit.h0, fit.a)

    def test_weighted_flag_is_unrecognised(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("delta,h2\n1,0.12\n5,0.11\n60,0.09\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit-ansatz", "--sweep", str(sweep), "--weighted", "--out", "-"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --weighted" in capsys.readouterr().err


class TestFiniteSampleCommand:
    def test_density_table(self, tmp_path):
        out = tmp_path / "density.csv"
        rc = main(["finite-sample", "--n", "12", "--points", "51",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 51
        pdf = [float(r["pdf"]) for r in rows]
        assert pdf[0] == 0.0 and pdf[-1] == 0.0
        assert max(pdf) == pytest.approx(float(rows[25]["pdf"]))


class TestTickCommands:
    def test_rv_roundtrip(self, tmp_path):
        ticks = write_tick_fixture(tmp_path / "ticks.csv")
        rv_out = tmp_path / "rv.csv"
        incr_out = tmp_path / "v.csv"
        rc = main(["rv", "--ticks", str(ticks), "--delta", "60",
                   "--out", str(rv_out), "--increments-out", str(incr_out)])
        assert rc == 0
        rv_rows = list(csv.DictReader(rv_out.open()))
        assert len(rv_rows) == 3
        assert all(float(r["rv"]) > 0 for r in rv_rows)
        incr_rows = list(csv.DictReader(incr_out.open()))
        assert len(incr_rows) == 2

    def test_ingest_returns(self, tmp_path):
        ticks = write_tick_fixture(tmp_path / "ticks.csv")
        out = tmp_path / "returns.csv"
        rc = main(["ingest", "--ticks", str(ticks), "--delta", "120",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3 * 12

    @pytest.mark.parametrize("flags,kept", [
        ([], [0, 2, 3, 4]),
        (["--min-coverage", "0.5"], [0, 3, 4]),
        (["--start", "2014-01-04", "--end", "2014-01-05"], [2, 3]),
        (["--start", "2014-01-03", "--end", "2014-01-05", "--min-coverage", "0.125"], [2, 3]),
        (["--start", "2014-01-03", "--end", "2014-01-05", "--min-coverage", "0.13"], [3]),
    ])
    @pytest.mark.parametrize("command", [["rv"], ["ingest", "--what", "prices"],
                                         ["ingest", "--what", "returns"]])
    def test_span_and_coverage_flags(self, tmp_path, command, flags, kept):
        ticks = write_gappy_fixture(tmp_path / "ticks.csv")
        out = tmp_path / "out.csv"
        rc = main([*command, "--ticks", str(ticks), "--delta", "60", *flags,
                   "--out", str(out)])
        assert rc == 0
        dates = [row["date"] for row in csv.DictReader(out.open())]
        assert sorted(set(dates)) == [(DAY0 + dt.timedelta(days=k)).isoformat() for k in kept]
        if command[0] == "ingest":
            assert len(dates) == len(kept) * (24 + (command[-1] == "prices"))

    def test_missing_file_exit_nonzero(self, tmp_path, capsys):
        rc = main(["rv", "--ticks", str(tmp_path / "nope.csv"), "--out", "-"])
        assert rc == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_empty_ticks_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = main(["rv", "--ticks", str(empty), "--out", "-"])
        assert rc == 2


class TestRollingCommand:
    def test_small_rolling_run(self, tmp_path):
        ticks = write_tick_fixture(tmp_path / "ticks.csv", days=130, step_minutes=5)
        out = tmp_path / "report.json"
        h2_csv = tmp_path / "h2.csv"
        rc = main(["rolling", "--ticks", str(ticks), "--window-days", "60",
                   "--step-days", "30", "--deltas", "30,60,120,288",
                   "--reference-delta", "30", "--out", str(out),
                   "--h2-csv", str(h2_csv)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["library_version"]
        assert len(doc["windows"]) == (130 - 60) // 30 + 1

    def test_config_file_with_flag_override(self, tmp_path):
        ticks = write_tick_fixture(tmp_path / "ticks.csv", days=130, step_minutes=5)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a whole-line comment, then a blank line\n\n"
            "window-days = 60\nstep-days = 99  # overridden below\n"
            f"deltas = 60,120\nreference-delta = 60\nticks = {ticks}\n")
        out = tmp_path / "report.json"
        # an explicit flag wins however argparse lets it be spelled
        for flag in (["--step-days", "30"], ["--step-days=30"], ["--step", "30"],
                     ["--step=30"]):
            rc = main(["rolling", "--config", str(cfg), *flag, "--out", str(out)])
            assert rc == 0
            doc = json.loads(out.read_text())
            assert doc["config"]["step_days"] == 30
            assert doc["config"]["window_days"] == 60

    def test_config_byte_order_mark_is_not_data(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfwindow-days = 60\nstep-days = 30\n")
        assert cli._load_config_file(str(cfg)) == {"window_days": "60", "step_days": "30"}

    def test_config_file_supplies_out(self, tmp_path):
        ticks = write_tick_fixture(tmp_path / "ticks.csv", days=130, step_minutes=5)
        out = tmp_path / "report.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"ticks = {ticks}\nout = {out}\nwindow-days = 60\n"
                       "step-days = 30\ndeltas = 60,120\nreference-delta = 60\n")
        assert main(["rolling", "--config", str(cfg)]) == 0
        assert json.loads(out.read_text())["config"]["window_days"] == 60

    def test_windows_too_short_to_fit_are_short_deltas(self, tmp_path):
        # 45-day windows hold 44 increments: every delta is short, exit 0
        ticks = write_tick_fixture(tmp_path / "ticks.csv", days=130, step_minutes=5)
        out = tmp_path / "report.json"
        rc = main(["rolling", "--ticks", str(ticks), "--window-days", "45",
                   "--step-days", "10", "--deltas", "30,60,120,288",
                   "--reference-delta", "30", "--out", str(out)])
        assert rc == 0
        windows = json.loads(out.read_text())["windows"]
        assert len(windows) == (130 - 45) // 10 + 1
        for window in windows:
            assert window["reason"] == "insufficient_data"
            assert window["diagnostics"]["short_deltas"] == [30, 60, 120, 288]

    def test_out_dash_is_stdout(self, tmp_path, monkeypatch, capsys):
        ticks = write_tick_fixture(tmp_path / "ticks.csv", days=130, step_minutes=5)
        monkeypatch.chdir(tmp_path)
        rc = main(["rolling", "--ticks", str(ticks), "--window-days", "60",
                   "--step-days", "30", "--deltas", "30,60,120,288",
                   "--reference-delta", "30", "--out", "-"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["windows"]) == (130 - 60) // 30 + 1
        assert not (tmp_path / "-").exists()

    def test_usage_error_exit_1(self, tmp_path):
        rc = main(["rolling", "--out", str(tmp_path / "r.json")])
        assert rc == 1

    def test_config_echoes_the_deltas_it_ran(self, tmp_path):
        ticks = write_tick_fixture(tmp_path / "ticks.csv", days=130, step_minutes=5)
        out = tmp_path / "report.json"
        rc = main(["rolling", "--ticks", str(ticks), "--window-days", "60",
                   "--step-days", "30", "--deltas", "15,1,15", "--reference-delta", "5",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["deltas"] == [1, 5, 15]
        for window in doc["windows"]:
            assert [int(d) for d in window["h2_by_delta"]] == [1, 5, 15]

    def test_resolves_the_sweep_once_and_runs_it(self, tmp_path):
        inputs = write_tick_csv(tmp_path / "ticks.csv", 0, 800, 300.0)
        out = tmp_path / "report.json"
        spy = mock.Mock(wraps=pipeline.resolve_deltas)
        with mock.patch.object(cli, "resolve_deltas", spy), \
                mock.patch.object(pipeline, "resolve_deltas", spy), \
                mock.patch.object(pipeline, "build_rv_by_delta",
                                  wraps=pipeline.build_rv_by_delta) as build, \
                pytest.warns(UserWarning, match="backfilled"):
            rc = main(["rolling", "--ticks", str(inputs.path),
                       "--max-malformed", str(inputs.malformed),
                       "--window-days", "730", "--step-days", "35",
                       "--deltas", "60,15,120,15,10,5", "--reference-delta", "30",
                       "--exclude", "120,60,120", "--out", str(out)])
        assert rc == 0
        assert spy.call_count == 1 and build.call_count == 1
        assert build.call_args.args[1] == [5, 10, 15, 30, 60, 120]
        doc = json.loads(out.read_text())
        assert doc["config"]["deltas"] == [5, 10, 15, 30, 60, 120]
        assert doc["config"]["exclude"] == [120, 60, 120]
        assert len(doc["windows"]) == 3
        for window in doc["windows"]:
            assert window["ansatz"]["excluded_deltas"] == [60, 120]


def _cli_case(name, tmp_path):
    """Arguments for one broken invocation; files it names live in tmp_path."""
    ticks = write_tick_fixture(tmp_path / "ticks.csv", days=3)
    cfg = tmp_path / "run.cfg"
    out = ["--out", str(tmp_path / "out")]
    if name == "config_line_without_equals":
        cfg.write_text(f"ticks = {ticks}\nwindow-days 60\n")
        return ["rolling", "--config", str(cfg), *out]
    if name == "config_value_not_an_int":
        cfg.write_text(f"ticks = {ticks}\nwindow_days = sixty\n")
        return ["rolling", "--config", str(cfg), *out]
    if name == "config_key_not_an_option":
        cfg.write_text(f"ticks = {ticks}\nfunc = nope\n")
        return ["rolling", "--config", str(cfg), *out]
    if name == "config_key_misspelled":
        cfg.write_text(f"ticks = {ticks}\nwindow_day = 3\n")
        return ["rolling", "--config", str(cfg), *out]
    if name == "config_flag_not_a_boolean":
        cfg.write_text(f"ticks = {ticks}\nheader = maybe\n")
        return ["rolling", "--config", str(cfg), *out]
    if name == "config_not_utf8":
        cfg.write_bytes(f"ticks = {ticks}\nwindow-days = 60\n".encode() + b"\xff = 1\n")
        return ["rolling", "--config", str(cfg), *out]
    if name == "config_workers_zero":  # a usage error, before the tick file is opened
        cfg.write_text(f"ticks = {tmp_path / 'nope.csv'}\nworkers = 0\n")
        return ["rolling", "--config", str(cfg), *out]
    if name == "missing_config_file":
        return ["rolling", "--config", str(tmp_path / "nope.cfg"), *out]
    if name == "rolling_without_out":
        return ["rolling", "--ticks", str(ticks)]
    if name == "missing_ticks_file":
        return ["rolling", "--ticks", str(tmp_path / "nope.csv"), *out]
    if name == "max_malformed_negative":
        return ["rolling", "--ticks", str(tmp_path / "nope.csv"), "--max-malformed", "-1",
                *out]
    if name == "deltas_with_zero":
        return ["rolling", "--ticks", str(ticks), "--deltas", "0,5", *out]
    # a usage error is reported before the tick file is opened
    bad_runs = {"deltas_negative": ["--deltas=-5,5"],
                "reference_delta_not_a_divisor": ["--reference-delta", "7"],
                "window_not_longer_than_step": ["--window-days", "5", "--step-days", "10"],
                "exclude_not_a_divisor": ["--exclude", "60,7"],
                "detrend_order_zero": ["--detrend-order", "0"],
                "detrend_order_above_the_default_grid": ["--detrend-order", "9"],
                "workers_zero": ["--workers", "0"],
                "workers_negative": ["--workers=-2"]}
    if name in bad_runs:
        return ["rolling", "--ticks", str(tmp_path / "nope.csv"), *bad_runs[name], *out]
    if name == "rv_start_not_a_date":
        return ["rv", "--ticks", str(ticks), "--start", "2020-13-01", *out]
    if name in ("rv_delta_not_a_divisor", "ingest_delta_not_a_divisor"):
        return [name.split("_")[0], "--ticks", str(tmp_path / "nope.csv"), "--delta", "7",
                *out]
    coverages = {"rv_min_coverage_nan": "nan", "rv_min_coverage_negative": "-1",
                 "ingest_min_coverage_above_one": "1.5"}
    if name in coverages:
        return [name.split("_")[0], "--ticks", str(tmp_path / "nope.csv"),
                f"--min-coverage={coverages[name]}", *out]
    bad_rows = {"ticks_not_utf8": b"\xff\xfe,1.0\r\n",
                "ticks_timestamp_out_of_range": b"99999999999999999999,2.0\r\n",
                "ticks_after_the_calendar": b"9223372036854775000,2.0\r\n",
                "ticks_before_the_calendar": b"-9000000000000000000,2.0\r\n",
                # a field over csv's size limit (128 Ki characters)
                "ticks_field_over_csv_limit": b"100,1.0," + b"9" * 140_000 + b"\n"}
    if name in bad_rows:
        ticks.write_bytes(ticks.read_bytes() + bad_rows[name])
        command = "rv" if name == "ticks_field_over_csv_limit" else "rolling"
        return [command, "--ticks", str(ticks), *out]
    sweeps = {"zero_stderr_in_sweep": "1,0.12,0.01\n5,0.11,0.0\n60,0.09,0.01\n",
              "sweep_stderr_nan": "1,0.12,0.01\n5,0.11,nan\n60,0.09,0.01\n",
              "sweep_h2_nan": "1,0.12\n5,nan\n60,0.09\n",
              "sweep_h2_inf": "1,0.12\n5,inf\n60,0.09\n",
              "sweep_delta_twice": "1,0.12\n5,0.11\n5,0.1\n60,0.09\n",
              "sweep_stderr_on_some_rows": "1,0.12,0.01\n5,0.11\n60,0.09,0.01\n",
              "sweep_row_without_h2": "1,0.12\n5\n60,0.09\n",
              "sweep_h2_not_a_number": "1,0.12\n5,abc\n60,0.09\n",
              "sweep_delta_not_positive": "1,0.12\n-5,0.11\n60,0.09\n",
              "sweep_delta_beyond_int64": "1,0.12\n99999999999999999999,0.1\n60,0.09\n",
              "fit_ansatz_exclude_not_a_divisor": "1,0.12\n5,0.11\n60,0.09\n"}
    # these replace the whole file, header included
    whole_sweeps = {"sweep_quoted_delta_spans_lines": b'delta,h2\n"1\n",0.1\n5,0.1\nx,0.1\n',
                    "sweep_first_row_h2_not_a_number": b"5,abc\n1,0.12\n60,0.09\n",
                    "sweep_not_utf8": b"delta,h2\n1,0.12\n\xff,0.1\n60,0.09\n",
                    "sweep_quoted_record_not_utf8":
                        b'delta,h2\n"1\n\xff",0.1\n5,0.11\n60,0.09\n',
                    "sweep_header_only": b"delta,h2\n",
                    "sweep_empty_file": b""}
    if name in sweeps or name in whole_sweeps:
        sweep = tmp_path / "sweep.csv"
        sweep.write_bytes(whole_sweeps[name] if name in whole_sweeps else
                          ("delta,h2,stderr\n" + sweeps[name]).encode())
        exclude = ["--exclude", "7"] if name == "fit_ansatz_exclude_not_a_divisor" else []
        return ["fit-ansatz", "--sweep", str(sweep), *exclude, *out]
    bad_values = {"series_with_nan": "nan", "series_with_inf": "-inf",
                  "series_field_over_csv_limit": "9" * 140_000}
    q_lists = {"q_list_nan": ["--q-list=nan,2"], "q_list_inf": ["--q-list=2,inf"]}
    if name in bad_values or name in q_lists:
        values = [repr(v) for v in np.random.default_rng(0).normal(size=400).tolist()]
        if name in bad_values:
            values[250] = bad_values[name]
        series = tmp_path / "series.csv"
        series.write_text("value\n" + "\n".join(values) + "\n")
        return ["mfdfa", "--series", str(series), *q_lists.get(name, []), *out]
    whole_series = {"series_quoted_value_spans_lines": b'value\n"1.0\n"\n2.0\nbad\n',
                    "series_not_utf8": b"value\n0.5\n\xff\n0.25\n",
                    "series_quoted_record_not_utf8": b'value\n"1.0\n\xff"\n2.0\n'}
    if name in whole_series:
        series = tmp_path / "series.csv"
        series.write_bytes(whole_series[name])
        return ["mfdfa", "--series", str(series), *out]
    synth = {"fgn_without_hurst": ["--kind", "fgn", "--len", "1024"],
             "cascade_without_p": ["--kind", "cascade", "--levels", "8"],
             "cascade_without_levels": ["--kind", "cascade", "--p", "0.6"],
             "sv_day_without_n": ["--kind", "sv_day", "--sigma", "0.01"]}
    return ["synth", *synth[name], *out]


def test_runtime_needs_no_scipy():
    """numpy is the one runtime dependency; scipy is for the tests alone."""
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "import numpy as np",
        "import roughscale.cli, roughscale.pipeline",
        "from roughscale.finite_sample import FiniteSampleLaw, density",
        "from roughscale.scaling import FrequencySweep, divisors_of_1440, fit_ansatz",
        "deltas = np.array(divisors_of_1440())",
        "n = 1440.0 / deltas",
        "fit_ansatz(FrequencySweep(deltas=deltas, h2=0.13 * n / (n + 3.0)))",
        "density(FiniteSampleLaw(288), 0.5)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


class TestExitCodes:
    """Each broken invocation exits with its contract code and a message."""

    @pytest.mark.parametrize("name,code,message", [
        ("config_line_without_equals", 2, "bad config line"),
        ("config_not_utf8", 2, "not valid UTF-8 at line 3"),
        ("config_value_not_an_int", 1, "sixty"),
        ("config_key_not_an_option", 1, "config key 'func'"),
        ("config_key_misspelled", 1, "config key 'window_day'"),
        ("config_flag_not_a_boolean", 1, "config key 'header'"),
        ("missing_config_file", 2, "No such file or directory"),
        ("missing_ticks_file", 2, "No such file or directory"),
        ("rolling_without_out", 1, "rolling: --out is required"),
        ("deltas_with_zero", 1, "delta 0 is not a positive divisor of 1440"),
        ("deltas_negative", 1, "delta -5 is not a positive divisor of 1440"),
        ("reference_delta_not_a_divisor", 1, "delta 7 is not a positive divisor of 1440"),
        ("window_not_longer_than_step", 1, "need window_days > step_days > 0"),
        ("detrend_order_zero", 1, "detrend_order must be >= 1"),
        ("detrend_order_above_the_default_grid", 1,
         "smallest scale must be >= detrend_order + 2"),
        ("exclude_not_a_divisor", 1, "delta 7 is not a positive divisor of 1440"),
        ("workers_zero", 1, "workers must be >= 1, got 0"),
        ("workers_negative", 1, "workers must be >= 1, got -2"),
        ("config_workers_zero", 1, "workers must be >= 1, got 0"),
        ("rv_start_not_a_date", 1, "invalid date value: '2020-13-01'"),
        ("rv_delta_not_a_divisor", 1, "delta 7 is not a positive divisor of 1440"),
        ("ingest_delta_not_a_divisor", 1, "delta 7 is not a positive divisor of 1440"),
        ("rv_min_coverage_nan", 1, "min_coverage must lie in [0, 1], got nan"),
        ("rv_min_coverage_negative", 1, "min_coverage must lie in [0, 1], got -1.0"),
        ("ingest_min_coverage_above_one", 1, "min_coverage must lie in [0, 1], got 1.5"),
        ("ticks_not_utf8", 2, "tick data is not valid UTF-8 at line 4321"),
        ("ticks_timestamp_out_of_range", 2, "line 4321: timestamp out of range"),
        ("ticks_after_the_calendar", 2, "9223372036854775000 lies outside the calendar"),
        ("ticks_before_the_calendar", 2, "-9000000000000000000 lies outside the calendar"),
        ("zero_stderr_in_sweep", 2, "bad sweep row at line 3"),
        ("sweep_stderr_nan", 2, "bad sweep row at line 3"),
        ("sweep_h2_nan", 2, "bad sweep row at line 3"),
        ("sweep_h2_inf", 2, "bad sweep row at line 3"),
        ("sweep_delta_twice", 2, "delta 5 is listed more than once in"),
        ("sweep_stderr_on_some_rows", 2, "stderr column must be present for all rows or none"),
        ("sweep_row_without_h2", 2, "bad sweep row at line 3"),
        ("sweep_h2_not_a_number", 2, "bad sweep row at line 3"),
        ("sweep_quoted_delta_spans_lines", 2, "bad sweep row at line 5"),
        ("sweep_first_row_h2_not_a_number", 2, "bad sweep row at line 1"),
        ("sweep_not_utf8", 2, "not valid UTF-8 at line 3"),
        ("sweep_quoted_record_not_utf8", 2, "not valid UTF-8 at line 2 of"),
        ("sweep_header_only", 2, "no numeric data in"),
        ("sweep_empty_file", 2, "no numeric data in"),
        ("sweep_delta_not_positive", 1, "delta -5 is not a positive divisor of 1440"),
        ("sweep_delta_beyond_int64", 1,
         "delta 99999999999999999999 is not a positive divisor of 1440"),
        ("fit_ansatz_exclude_not_a_divisor", 1, "delta 7 is not a positive divisor of 1440"),
        ("series_with_nan", 2, "non-finite value at line 252"),
        ("series_with_inf", 2, "non-finite value at line 252"),
        ("series_field_over_csv_limit", 2,
         "field larger than field limit (131072) at line 252 of"),
        ("series_quoted_value_spans_lines", 2, "non-numeric value at line 5"),
        ("series_not_utf8", 2, "not valid UTF-8 at line 3"),
        ("series_quoted_record_not_utf8", 2, "not valid UTF-8 at line 2 of"),
        ("ticks_field_over_csv_limit", 2,
         "field larger than field limit (131072) at line 4321"),
        ("max_malformed_negative", 1, "max_malformed must be >= 0, got -1"),
        ("q_list_nan", 1, "q values must be finite, got [nan, 2.0]"),
        ("q_list_inf", 1, "q values must be finite, got [2.0, inf]"),
        ("fgn_without_hurst", 1, "--hurst"),
        ("cascade_without_p", 1, "--p"),
        ("cascade_without_levels", 1, "--levels"),
        ("sv_day_without_n", 1, "--n"),
    ])
    def test_exit_code(self, tmp_path, capsys, name, code, message):
        try:
            rc = main(_cli_case(name, tmp_path))
        except SystemExit as exc:  # argparse's own usage errors exit from parse_args
            rc = exc.code
        assert rc == code
        assert message in capsys.readouterr().err


class TestTickOracle:
    """Ticks of known roughness through the whole `rolling` chain, no data needed.

    Daily log-volatility is fractional with Hurst exponent H_TRUE = 0.13 and
    trades are Poisson-timed, 300 a day over 800 days: 3 windows of 730 days.
    Over seeds 0-39 the median window H0 missed H_TRUE by +0.017 on average,
    0.025 rms and 0.070 at worst (seed 22), so 0.08 holds for any seed while
    a chain that loses the roughness (white noise reads 0.5) fails.
    """

    def test_median_window_h0_recovers_h_true(self, tmp_path):
        inputs = write_tick_csv(tmp_path / "ticks.csv", 0, 800, 300.0)
        out = tmp_path / "report.json"
        with pytest.warns(UserWarning, match="backfilled"):  # the mid-day first trade
            rc = main(["rolling", "--ticks", str(inputs.path),
                       "--max-malformed", str(inputs.malformed),
                       "--window-days", "730", "--step-days", "35", "--out", str(out)])
        assert rc == 0
        windows = json.loads(out.read_text())["windows"]
        assert len(windows) == 3 and all(w["reason"] is None for w in windows)
        h0 = statistics.median(w["ansatz"]["h0"] for w in windows)
        assert abs(h0 - H_TRUE) <= 0.08
