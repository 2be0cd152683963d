"""Write the stored reference that gates rolling_rv's per-window h2.

    python3 perfbench/make_reference.py

Run from the repository root at a commit whose results are trusted; the
benchmark then requires every later commit to reproduce the stored per-window
h2_by_delta of the fixed reference input to 1e-12 relative.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import BLAS_ENV
    os.environ.update(BLAS_ENV)   # as in the benchmark, before numpy loads
    from perfbench import workloads
    doc = {"seed": workloads.REFERENCE_SEED, "num_days": workloads.REFERENCE_DAYS,
           "window_days": workloads.RollingRV.spec.window_days,
           "step_days": workloads.RollingRV.spec.step_days,
           "windows": workloads.reference_windows()}
    workloads.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_FILE.relative_to(ROOT)}: {len(doc['windows'])} windows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
