"""Generator determinism, the tick CSV's awkward cases, and the output checks."""
import dataclasses
import json

import numpy as np
import pytest

from perfbench import generators as gen
from perfbench import layers, workloads
from perfbench.tracing import Tracer
from roughscale.market_data import parse_ticks


def test_format_rows_matches_python_formatting():
    rng = np.random.default_rng(3)
    ts = rng.integers(10 ** 9, 10 ** 10, 500)
    cents = np.concatenate([[1, 9, 10, 99, 100, 12345678], rng.integers(1, 10 ** 9, 494)])
    body, lengths = gen._format_rows(ts, cents)
    want = "".join(f"{t},{c // 100}.{c % 100:02d}\n" for t, c in zip(ts.tolist(), cents.tolist()))
    assert body.tobytes().decode() == want
    assert lengths.sum() == len(want)


def test_rolling_inputs_are_a_function_of_the_seed():
    a, b = gen.rolling_inputs(5, num_days=300), gen.rolling_inputs(5, num_days=300)
    assert a.digest() == b.digest() and a.flat_days == b.flat_days
    assert gen.rolling_inputs(6, num_days=300).digest() != a.digest()
    assert sorted(a.rv_by_delta) == gen.divisors_of_1440()
    for delta, rv in a.rv_by_delta.items():
        assert np.all(rv.rv[list(a.flat_days)] == 0.0)
        assert np.all(np.delete(rv.rv, a.flat_days) > 0.0)


def test_oracle_inputs_are_a_function_of_the_seed():
    assert gen.oracle_inputs(1).digest() == gen.oracle_inputs(1).digest()
    assert gen.oracle_inputs(2).digest() != gen.oracle_inputs(1).digest()


def test_tick_csv_is_deterministic_and_carries_every_awkward_case(tmp_path):
    a = gen.write_tick_csv(tmp_path / "a.csv", 9, num_days=40, trades_per_day=300)
    b = gen.write_tick_csv(tmp_path / "b.csv", 9, num_days=40, trades_per_day=300)
    assert a.sha256 == b.sha256
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    c = gen.write_tick_csv(tmp_path / "c.csv", 10, num_days=40, trades_per_day=300)
    assert c.sha256 != a.sha256

    ticks = parse_ticks(str(a.path), max_malformed=a.malformed)
    assert a.malformed == len(gen.MALFORMED_LINES) and ticks.malformed_lines == a.malformed
    assert ticks.dropped_nonpositive == a.nonpositive
    assert len(ticks) == a.valid_rows
    assert gen.digest(ticks.timestamps, ticks.prices) == a.ticks_digest
    days = ticks.timestamps // 86400 - gen.EPOCH_DAY0
    assert days[0] == 0 and ticks.timestamps[0] % 86400 >= gen.LEADING_EDGE_S  # mid-day edge
    assert not set(a.zero_trade_days) & set(days.tolist())
    assert a.days_with_trades == a.num_days - len(a.zero_trade_days)
    for d in a.flat_days:
        assert len(np.unique(ticks.prices[days == d])) == 1
    stamps = np.array([int(line.split(b",")[0]) for line in a.path.read_bytes().split(b"\n")
                       if line.count(b",") == 1 and line.split(b",")[0].isdigit()])
    assert np.count_nonzero(np.diff(stamps) < 0) >= a.swapped_pairs > 0
    with pytest.raises(Exception, match="malformed"):
        parse_ticks(str(a.path), max_malformed=a.malformed - 1)


@pytest.fixture(scope="module")
def small_ticks_run(tmp_path_factory):
    wl = workloads.TicksCLI()
    wl.num_days, wl.window_days, wl.step_days = 80, 60, 10
    inputs = wl.setup(4, tmp_path_factory.mktemp("ticks"))
    with Tracer() as probe:
        probe.install(layers.targets_named(*wl.probe_bindings))
        rc = wl.job(inputs)
    return wl, inputs, rc, probe.counters


def test_ticks_probe_accepts_the_generated_awkward_cases(small_ticks_run):
    wl, inputs, rc, counters = small_ticks_run
    assert rc == 0
    assert wl.probe_problems(counters, inputs) == []
    assert counters.get("market_data.leading_backfills") == len(gen.divisors_of_1440())
    outcome = wl.outcome(rc, inputs)
    assert outcome.attempted == wl.expected_windows() == 3
    assert not [p for p in outcome.problems if "windows" in p]


def test_ticks_probe_reports_a_miscounted_case(small_ticks_run):
    wl, inputs, rc, counters = small_ticks_run
    wrong = dataclasses.replace(inputs, malformed=inputs.malformed + 1,
                                ticks_digest="0" * 64)
    problems = wl.probe_problems(counters, wrong)
    assert any(p.startswith("malformed lines") for p in problems)
    assert any(p.startswith("parsed ticks digest") for p in problems)


def test_ticks_outcome_rejects_a_broken_report(small_ticks_run):
    wl, inputs, rc, _ = small_ticks_run
    doc = json.loads(wl.report.read_text())
    doc["windows"] = doc["windows"][:-1]
    wl.report.write_text(json.dumps(doc))
    assert any("windows, expected" in p for p in wl.outcome(0, inputs).problems)
    wl.report.write_text("{not json")
    assert any("not JSON" in p for p in wl.outcome(0, inputs).problems)
    assert wl.outcome(2, inputs).problems == ["roughscale rolling exited 2"]


def test_reference_comparison_catches_a_relative_change_above_gate():
    stored = json.loads(workloads.REFERENCE_FILE.read_text())["windows"]
    assert workloads.compare_windows(stored, stored, workloads.REFERENCE_RTOL) == []
    nudged = json.loads(json.dumps(stored))
    h2 = nudged[1]["h2_by_delta"]
    h2["5"] *= 1 + 1e-11
    problems = workloads.compare_windows(nudged, stored, workloads.REFERENCE_RTOL)
    assert len(problems) == 1 and "delta 5" in problems[0]
    h2["5"] = stored[1]["h2_by_delta"]["5"] * (1 + 1e-13)
    assert workloads.compare_windows(nudged, stored, workloads.REFERENCE_RTOL) == []


def test_oracle_outcome_flags_estimates_outside_tolerance():
    wl = workloads.OracleStudy()
    inputs = gen.OracleInputs(fgn=((0.3, np.zeros(4)),), cascade=np.zeros(4),
                              sweep_deltas=np.array([1]), sweeps=(np.zeros(1),))
    good = [("fgn", 0.31, 0.3), ("sweep", 0.131, 0.13)]
    out = wl.outcome((good, 0), inputs)
    assert out.problems == [] and out.attempted == 3
    assert out.hurst_abs_err == pytest.approx(np.mean([0.01, 0.001]))
    bad = wl.outcome(([("fgn", 0.4, 0.3)], 1), inputs)
    assert len(bad.problems) == 2 and bad.failed == 1
