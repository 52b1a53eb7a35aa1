"""Run ``bench/run.py`` for one workload in a child process and collect its record."""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYOUT = json.loads((BENCH_DIR / "layout.json").read_text(encoding="utf-8"))

# run.py's own exit budget is 180 s; this only guards against a hang
TIMEOUT_S = 600


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The full record of one run (see run.py's ``--out``), with its exit code."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"record-{workload}-{seed}-{trace}-{os.getpid()}.json"
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if not out.exists():
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} without a record:\n"
                           f"{proc.stdout}{proc.stderr}")
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    record["exit_code"] = proc.returncode
    record["stdout"] = proc.stdout
    return record
