"""Paper-scale tick run record: 14 years of ticks to rolling H(Δ), stage by stage.

    python3 bench/paper_scale_ticks.py --label <name> [--seed 11]

Run from the repository root. The input is `perfbench.generators.write_tick_csv`
over 5114 days at 1000 trades a day (about 5.1 M rows, 110 MB), written to a
temporary directory and deleted afterwards. Each of `REPEATS` runs times four
stages in turn, with one BLAS thread: `parse_ticks`, `build_rv_by_delta` at
all 36 Δ, `run_rolling` on that RV (2922-day windows stepped by 5, 439
windows) and `emit_report` (JSON and both CSVs). The record goes to
`bench/BENCH_<label>.json`: per run and per stage wall and CPU seconds and
peak resident memory during the stage, their medians, window and
degraded-window counts, the median window H₀, the sha256 of the last run's
`report.json`, `h2.csv` and `hq.csv` (equal digests show byte-identical
outputs across commits), and the provenance of `paper_scale.py` with the
CSV's sha256.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

# paper_scale, beside this file, puts src/ and the repository root on sys.path
from paper_scale import NUM_DAYS, ROOT, STEP_DAYS, WINDOW_DAYS, file_sha256, provenance
from perfbench.run import BLAS_ENV, PeakRSS, release_free_heap  # noqa: E402

TRADES_PER_DAY = 1000.0
REPEATS = 3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--seed", type=int, default=11)
    args = p.parse_args(argv)

    os.environ.update(BLAS_ENV)  # before numpy loads its BLAS
    # the CSV's mid-day leading edge is backfilled once per Δ, by design
    warnings.filterwarnings("ignore", message="backfilled the day-open")
    from perfbench import generators
    from roughscale import pipeline
    from roughscale.market_data import parse_ticks
    from roughscale.scaling import divisors_of_1440

    spec = pipeline.RollingSpec(window_days=WINDOW_DAYS, step_days=STEP_DAYS)
    deltas = divisors_of_1440()
    runs = []

    def timed(run: dict, stage: str, call):
        """`call()`, its wall and CPU seconds and peak RSS recorded in `run`."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with PeakRSS() as rss:
            result = call()
        run[stage] = {"wall_s": time.perf_counter() - wall0,
                      "cpu_s": time.process_time() - cpu0,
                      "peak_rss_mb": rss.peak_bytes / 2 ** 20}
        return result

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        t0 = time.perf_counter()
        inputs = generators.write_tick_csv(work / "ticks.csv", args.seed, NUM_DAYS,
                                           TRADES_PER_DAY)
        generate_s = time.perf_counter() - t0
        for _ in range(REPEATS):
            reports = None  # free the last run's outputs first
            release_free_heap()
            run = {}
            held = [timed(run, "parse_ticks", lambda: parse_ticks(
                inputs.path, max_malformed=inputs.malformed))]
            # as `roughscale rolling` does, the ticks are handed over with no
            # other reference, so they die once the trade index is built
            rv = timed(run, "build_rv_by_delta",
                       lambda: pipeline.build_rv_by_delta(held.pop(), deltas))
            reports = timed(run, "run_rolling", lambda: pipeline.run_rolling(rv, spec))
            timed(run, "emit_report", lambda: pipeline.emit_report(
                reports, str(work / "report.json"), str(work / "h2.csv"),
                str(work / "hq.csv")))
            runs.append(run)
            del rv
        outputs_sha256 = {name: file_sha256(work / name)
                          for name in ("report.json", "h2.csv", "hq.csv")}
    h0 = [r.ansatz.h0 for r in reports if r.ansatz is not None]
    record = {
        "job": "parse_ticks, build_rv_by_delta, run_rolling and emit_report on "
               "perfbench.generators.write_tick_csv",
        "num_days": NUM_DAYS, "trades_per_day": TRADES_PER_DAY,
        "rows": inputs.rows, "csv_bytes": inputs.size_bytes,
        "window_days": WINDOW_DAYS, "step_days": STEP_DAYS,
        "deltas": len(deltas),
        "windows": len(reports),
        "windows_degraded": sum(r.reason is not None for r in reports),
        "median_window_h0": statistics.median(h0) if h0 else None,
        "h_true": generators.H_TRUE,
        "outputs_sha256": outputs_sha256,
        "median": {stage: {k: statistics.median(run[stage][k] for run in runs)
                           for k in timing} for stage, timing in runs[0].items()},
        "runs": runs,
        "generate_s": generate_s,
        "provenance": provenance(args.seed, inputs.sha256),
    }
    out = ROOT / "bench" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{out.relative_to(ROOT)}: {record['rows']} rows, {record['windows']} windows, "
          f"{record['windows_degraded']} degraded; median over {REPEATS} runs:")
    for stage, m in record["median"].items():
        print(f"  {stage:18s} wall {m['wall_s']:7.2f} s  cpu {m['cpu_s']:7.2f} s  "
              f"peak rss {m['peak_rss_mb']:6.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
