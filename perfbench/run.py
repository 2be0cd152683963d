"""Benchmark command: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload rolling_rv --seed 1 --seconds 40 --trace 0

Run from the repository root. ``--trace 0`` times three fresh-interpreter
imports and three input set-ups, runs one checked warm-up repetition, then
repeats the job untraced for ``--seconds`` seconds, sampling resident memory,
and reports the end-to-end metrics. ``--trace 1`` alternates untraced and
traced repetitions, reports the per-layer metrics read off the spans, and
writes the spans under ``.perfbench_out/``. Every repetition's output is
checked; the process exits 1 if any check fails and 2 if the source tree is
missing.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_TRIALS = 3
# one BLAS thread: the load is this one process, with at most the two
# threads of the ticks_cli pool doing work
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class PeakRSS:
    """Highest resident set size of this process while the block runs, read
    from /proc/self/statm every `interval` seconds on a helper thread."""

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _sample(self) -> None:
        resident = int(os.pread(self._fd, 64, 0).split()[1]) * self._page
        self.peak_bytes = max(self.peak_bytes, resident)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRSS":
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        self._sample()
        os.close(self._fd)
        return False


def release_free_heap() -> None:
    """Return freed heap pages to the system so each repetition's resident
    baseline does not depend on garbage left by set-up or earlier repetitions."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["rolling_rv", "ticks_cli", "oracle_study"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "roughscale").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(args, wl, inputs, input_digest: str) -> dict:
    import numpy
    import scipy
    import roughscale
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "roughscale": roughscale.__version__, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "input_sha256": input_digest, "sizes": wl.sizes(inputs),
    }
    if hasattr(inputs, "sha256"):
        record["tick_csv_sha256"] = inputs.sha256
    return record


def import_seconds(trials: int = 3) -> float:
    """Median time a fresh interpreter takes to import numpy, scipy and
    roughscale; one import in this process would be too noisy to compare."""
    code = ("import time; t = time.perf_counter(); "
            "import numpy, scipy.optimize, roughscale.cli; "
            "print(time.perf_counter() - t)")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    times = []
    for _ in range(trials):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True,
                              env={**os.environ, "PYTHONPATH": path})
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run(args) -> tuple[dict, dict]:
    from perfbench import layers, tracing
    from perfbench.workloads import WORKLOADS
    import_s = import_seconds() if args.trace == 0 else 0.0

    wl = WORKLOADS[args.workload]()
    workdir = OUT / wl.name / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []

    # set-up: input generation (and the CSV), repeated; the median is reported
    setup_times, digests = [], set()
    setup_tracer = tracing.Tracer()
    for trial in range(SETUP_TRIALS if args.trace == 0 else 1):
        gc.collect()
        if args.trace:
            setup_tracer.install(layers.SETUP_TARGETS)
        start = time.perf_counter()
        inputs = wl.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
        setup_tracer.uninstall()
        digests.add(wl.input_digest(inputs))
    if len(digests) != 1:
        problems.append("input generation is not deterministic for this seed")
    record = provenance(args, wl, inputs, digests.pop())
    record["import_s"] = import_s
    record["setup_trials_s"] = setup_times

    attempted = failed = 0
    outcomes = []

    def account(outcome) -> None:
        nonlocal attempted, failed
        attempted += outcome.attempted
        failed += outcome.failed
        outcomes.append(outcome)
        problems.extend(p for p in outcome.problems if p not in problems)
        if outcome.fingerprint != outcomes[0].fingerprint:
            problems.append("output differs between repetitions of one input")

    # warm-up repetition, not timed: checks the awkward cases through light probes
    gc.collect()
    with tracing.Tracer() as probe:
        probe.install(layers.targets_named(*wl.probe_bindings))
        result = wl.job(inputs)
    account(wl.outcome(result, inputs))
    problems.extend(wl.probe_problems(probe.counters, inputs))
    problems.extend(wl.extra_problems())
    del result, probe

    walls, cpus, peaks, traced_walls, traced_values = [], [], [], [], []
    spans = None
    # repeat until about --seconds have passed: stop early when another
    # round would end further past the deadline than this one ends before it
    deadline = time.perf_counter() + args.seconds
    rounds = []
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if args.trace else (False,)):
            release_free_heap()
            tracer = tracing.Tracer()
            with tracer, PeakRSS() as rss:
                if traced:
                    tracer.install(layers.TARGETS)
                block = tracer.span("bench.job") if traced else nullcontext()
                w0, c0 = time.perf_counter(), time.process_time()
                with block:
                    result = wl.job(inputs)
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            account(wl.outcome(result, inputs))
            del result
            if traced:
                traced_walls.append(wall)
                traced_values.append(layers.job_values(tracer.spans, tracer.counters))
                spans = tracer.spans
            else:
                walls.append(wall)
                cpus.append(cpu)
                peaks.append(rss.peak_bytes)
        now = time.perf_counter()
        rounds.append(now - round_start)
        if now + statistics.median(rounds) / 2 >= deadline:
            break

    wall_s = statistics.median(walls)
    record["reps"] = {"wall_s": walls, "cpu_s": cpus,
                      "peak_rss_mb": [p / 2 ** 20 for p in peaks],
                      "traced_wall_s": traced_walls}
    record["end_to_end"] = {
        "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s", "quartiles": quartiles(walls),
                   "samples": len(walls)},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peaks) / 2 ** 20, "unit": "MB"},
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "hurst_abs_err": {"value": statistics.median(o.hurst_abs_err for o in outcomes),
                          "unit": "abs"},
    }
    sizes = record["sizes"]
    if "windows" in sizes:
        record["end_to_end"]["windows_per_s"] = {"value": sizes["windows"] / wall_s,
                                                 "unit": "1/s"}
    if "valid_rows" in sizes:
        record["end_to_end"]["ticks_per_s"] = {"value": sizes["valid_rows"] / wall_s,
                                               "unit": "1/s"}

    if args.trace:
        overhead = statistics.median(traced_walls) / wall_s - 1.0
        record["per_layer"] = layers.per_layer_metrics(traced_values, setup_tracer.spans,
                                                       overhead)
        table = tracing.module_table(spans, traced_walls[-1])
        record["modules"] = table
        record["shape"] = layers.shape_checks(wl.name, spans)
        problems.extend(c["detail"] for c in record["shape"]
                        if c["gate"] and not c["ok"])
        write_spans(wl.name, args.seed, spans, setup_tracer.spans)
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k]["value"], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}

    record["problems"] = problems
    final = {"correct": not problems, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    return record, final


def write_spans(workload: str, seed: int, spans, setup_spans) -> None:
    doc = {"workload": workload, "seed": seed,
           "columns": ["id", "name", "start", "end", "parent", "thread"],
           "setup_spans": [s.to_list() for s in setup_spans],
           "spans": [s.to_list() for s in spans]}
    (OUT / workload / "spans.json").write_text(json.dumps(doc), encoding="utf-8")


def print_report(record: dict, final: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"commit={record['git_commit'] or 'n/a'} src={record['source_sha256'][:12]}")
    print(f"  sizes: {json.dumps(record['sizes'])}")
    if record["trace"]:
        for name, m in record["per_layer"].items():
            print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
        print("  module                  self_s    calls    wall_s  share_of_wall")
        for module, row in record["modules"].items():
            print(f"  {module:20s} {row['self_s']:9.4f} {row['calls']:8d} "
                  f"{row['wall_s']:9.4f} {row['share_of_wall']:10.3f}")
        for c in record["shape"]:
            state = "ok" if c["ok"] else ("FAIL" if c["gate"] else "differs")
            print(f"  shape: {c['check']}: {state}")
    else:
        for name, m in record["end_to_end"].items():
            print(f"  {name:16s} {m['value']:>14.6g} {m['unit']}")
    for p in record["problems"]:
        print(f"  CHECK FAILED: {p}")
    print(f"  attempted={final['attempted']} failed={final['failed']} "
          f"correct={final['correct']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "roughscale" / "__init__.py").is_file():
        print(f"perfbench: no roughscale source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)   # before numpy loads its BLAS
    # expected on ticks_cli; the probes count it instead
    warnings.filterwarnings("ignore", message="backfilled the day-open")
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        record, final = run(args)
    except Exception:  # a job that raises is a failed run, reported as such
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}),
              flush=True)
        return 1
    path = OUT / record["workload"] / f"seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": final}, indent=1), encoding="utf-8")
    print_report(record, final)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
