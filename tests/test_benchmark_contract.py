"""The benchmark's contract with the package.

`perfbench/` is frozen: it traces named module attributes (`layers.TARGETS`,
`layers.SETUP_TARGETS`) and calls `pipeline.run_rolling(mapping, spec,
workers=1)` and `roughscale rolling ... --workers 2`. A change that drops or
renames one of those names breaks `perfbench/run.py --trace` without failing
anything else, so the contract is checked here. The paper-scale record
scripts under `bench/` import names from `perfbench.run` and from each other,
and nothing else runs them, so they are started here too.
"""
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import generators, layers, workloads
from perfbench.tracing import Tracer
from roughscale import pipeline
from roughscale.scaling import divisors_of_1440

DELTAS = len(divisors_of_1440())


@pytest.mark.parametrize("target", layers.TARGETS + layers.SETUP_TARGETS,
                         ids=lambda t: f"{t.module}.{t.attr}")
def test_every_traced_binding_resolves(target):
    assert callable(getattr(importlib.import_module(target.module), target.attr))


def test_rolling_workload_call_is_accepted():
    inputs = generators.rolling_inputs(5, 400)
    spec = pipeline.RollingSpec(window_days=365, step_days=35)
    with Tracer() as tracer:
        tracer.install(layers.TARGETS)
        reports = pipeline.run_rolling(inputs.rv_by_delta, spec, workers=1)
        # the tracer's run_rolling hook reads a keyword call's mapping as `data`
        by_name = pipeline.run_rolling(data=inputs.rv_by_delta, rolling=spec)
    v = layers.job_values(tracer.spans, tracer.counters)
    assert len(reports) == 2 and v["pipeline.windows"] == 4
    assert [r.to_dict() for r in by_name] == [r.to_dict() for r in reports]
    assert all(len(r.h2_by_delta) == DELTAS for r in reports)
    # per run one call per delta: a flat day is flat at every delta, so each
    # delta's windows hold series of one length
    assert v["mfdfa.fluctuation_function_calls"] == 2 * DELTAS


def test_traced_cli_workload_keeps_its_probes(tmp_path):
    wl = workloads.TicksCLI()
    wl.num_days, wl.window_days, wl.step_days = 80, 60, 10
    inputs = wl.setup(4, tmp_path)
    assert "--workers" in wl.argv(inputs)
    with Tracer() as tracer:
        tracer.install(layers.TARGETS)
        assert wl.job(inputs) == 0
    assert wl.probe_problems(tracer.counters, inputs) == []
    v = layers.job_values(tracer.spans, tracer.counters)
    assert v["pipeline.windows"] == wl.expected_windows() == 3
    assert v["market_data.resample_calls"] == v["market_data.leading_backfills"] == DELTAS
    assert v["market_data.grid_days"] == DELTAS * inputs.days_with_trades
    assert v["pipeline.build_rv_by_delta_s"] > 0
    assert v["market_data.parse_ticks_s"] > 0 and v["pipeline.emit_report_s"] > 0


def test_rolling_reference_gate():
    # rolling_rv's gate: h2 of every window and delta within 1e-12 of the stored run
    assert workloads.reference_problems(workloads.REFERENCE_FILE) == []


@pytest.mark.parametrize("script", ["bench/paper_scale.py", "bench/paper_scale_ticks.py"])
def test_paper_scale_script_starts(script):
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, script, "--help"], cwd=root, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
