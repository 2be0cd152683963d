"""Paper-scale run record: `run_rolling` over 14 years of daily RV at all 36 Δ.

    python3 bench/paper_scale.py --label <name> [--seed 11]

Run from the repository root. The input is `perfbench.generators.rolling_inputs`
over 5114 days (rough volatility, H = 0.13), so no data download is needed;
windows are 2922 days stepped by 5 (439 windows), the paper's layout. The job
runs `REPEATS` times with one BLAS thread. The record goes to
`bench/BENCH_<label>.json`: per-run wall and CPU seconds, peak resident memory
during each run, the tracemalloc peak of one more, untimed run (finer than
peak RSS, which moves by megabytes from run to run), the q = {2} windows
that `mfdfa._residue_means` routed to the gather path in it and the q = {2}
layouts it built (`layout_builds`, null for a tree without the layout
cache, which is emptied first so that the traced peak counts the layout it
holds), window and degraded-window counts, the median window H₀, the
sha256 of the report JSON that `pipeline.write_json` writes for the last run
(equal digests show byte-identical reports across commits), and provenance
(commit, sha256 of `src/roughscale`, Python and numpy versions, the scipy
version or null where scipy is not installed, processor count, seed and input
digest).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import BLAS_ENV, PeakRSS, git_commit, release_free_heap, \
    source_digest  # noqa: E402

NUM_DAYS = 5114      # 14 years
WINDOW_DAYS = 2922   # eight years including two leap days
STEP_DAYS = 5
REPEATS = 3


def src_modified() -> bool | None:
    """Whether src/ differs from the recorded commit (None outside a checkout)."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_sha256(reports) -> str:
    """sha256 of the bytes `pipeline.write_json` writes for `report_document(reports)`."""
    from roughscale import pipeline
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        pipeline.write_json(str(path), pipeline.report_document(reports))
        return file_sha256(path)


def counting_routed(routed: list):
    """A patcher that wraps `mfdfa._residue_means`, as perfbench wraps the
    bindings it traces, to append each call's number of routed windows to
    `routed`."""
    from roughscale import mfdfa
    real = mfdfa._residue_means

    @functools.wraps(real)
    def counted(*args):
        means, windows = real(*args)
        routed.append(int(windows.sum()))
        return means, windows

    return mock.patch.object(mfdfa, "_residue_means", counted)


def cleared_layouts():
    """`mfdfa`'s q = {2} layout cache, emptied, so that a traced run builds and
    counts the layout that it holds; None for a tree without the cache."""
    from roughscale import mfdfa
    cache = getattr(mfdfa, "_residue_layout", None)
    if cache is not None:
        cache.cache_clear()
    return cache


def layout_builds(cache) -> int | None:
    """The layouts built since `cleared_layouts()` gave `cache`."""
    return None if cache is None else cache.cache_info().misses


def provenance(seed: int, input_sha256: str) -> dict:
    """Where a record's numbers come from; call after `BLAS_ENV` is set."""
    import numpy
    # scipy is no runtime dependency: its version, read without importing it,
    # where the tests' install has it
    scipy = importlib.metadata.version("scipy") if importlib.util.find_spec("scipy") else None
    return {
        "git_commit": git_commit(), "src_modified": src_modified(),
        "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy, "nproc": os.cpu_count(),
        "machine": platform.machine(), "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "seed": seed, "input_sha256": input_sha256,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--seed", type=int, default=11)
    args = p.parse_args(argv)

    os.environ.update(BLAS_ENV)  # before numpy loads its BLAS
    from perfbench import generators
    from roughscale import pipeline

    t0 = time.perf_counter()
    inputs = generators.rolling_inputs(args.seed, NUM_DAYS)
    generate_s = time.perf_counter() - t0
    spec = pipeline.RollingSpec(window_days=WINDOW_DAYS, step_days=STEP_DAYS)
    runs = []
    for _ in range(REPEATS):
        release_free_heap()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with PeakRSS() as rss:
            reports = pipeline.run_rolling(inputs.rv_by_delta, spec)
        runs.append({"wall_s": time.perf_counter() - wall0,
                     "cpu_s": time.process_time() - cpu0,
                     "peak_rss_mb": rss.peak_bytes / 2 ** 20})
    release_free_heap()
    routed = []
    layouts = cleared_layouts()
    with counting_routed(routed):
        tracemalloc.start()
        pipeline.run_rolling(inputs.rv_by_delta, spec)
    traced_peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    h0 = [r.ansatz.h0 for r in reports if r.ansatz is not None]
    record = {
        "job": "pipeline.run_rolling on perfbench.generators.rolling_inputs",
        "num_days": NUM_DAYS, "window_days": WINDOW_DAYS, "step_days": STEP_DAYS,
        "deltas": len(inputs.rv_by_delta),
        "windows": len(reports),
        "windows_degraded": sum(r.reason is not None for r in reports),
        "median_window_h0": statistics.median(h0) if h0 else None,
        "h_true": generators.H_TRUE,
        "report_sha256": report_sha256(reports),
        "median": {k: statistics.median(run[k] for run in runs) for k in runs[0]},
        "runs": runs,
        "traced_peak_mb": traced_peak_mb,
        "routed_windows": sum(routed),
        "layout_builds": layout_builds(layouts),
        "generate_s": generate_s,
        "provenance": provenance(args.seed, inputs.digest()),
    }
    out = ROOT / "bench" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    m = record["median"]
    print(f"{out.relative_to(ROOT)}: wall {m['wall_s']:.2f} s, cpu {m['cpu_s']:.2f} s, "
          f"peak rss {m['peak_rss_mb']:.1f} MB over {REPEATS} runs, traced peak "
          f"{traced_peak_mb:.2f} MB; "
          f"{record['windows']} windows, {record['windows_degraded']} degraded, "
          f"{record['routed_windows']} routed off the q = {{2}} sums, "
          f"{record['layout_builds']} q = {{2}} layouts built")
    return 0


if __name__ == "__main__":
    sys.exit(main())
