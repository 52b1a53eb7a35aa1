"""Run one benchmark workload against the splitpack source in this checkout.

    python3 bench/run.py --workload certify-small --seed 1 --seconds 45 --trace 0

The workload runs in this process, single-threaded, one call at a time (a
closed loop with one client). Set-up imports ``splitpack`` from ``src/`` and
builds the seed's inputs. The timed loop runs whole passes over the seed's
fixed list of instances until at least ``--seconds`` of call time are
measured, so every run times the same instances in the same proportions.

On a shared host the speed of a core changes by a fifth or more from one
ten-second stretch to the next, so a run's figures are medians over the whole
run rather than its fastest moments (in paired runs the medians spread less): each instance's median call time over
the passes gives ``latency_ms.p50`` (their median) and ``circles_per_s``
(circles per second of their sum), and set-up is repeated SETUP_REPS times,
spread over the run, with ``setup_s`` the median of them. The fastest calls
and the 99th percentile over every call are printed beside them. Each output
is checked outside the timed region, and a negative control confirms that
the checkers reject an overlapping packing.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics. With ``--trace 1`` the same measurement is followed by one
traced pass, and the metrics are the per-layer numbers of that pass plus the
tracing overhead; its spans are written to ``bench/_out/``. When the pass
calls ``verify``, one more pass measures the verifier's peak allocation with
``tracemalloc``, which would slow the timed spans. ``--out FILE`` also writes
the full record: every metric with its sample counts, the exact work counts,
the placement digest and the machine description.

Exit status: 0 when every output and the negative control check out, 1 when
one does not, 2 when the benchmark cannot run at all (no result is printed).
"""

import os

# Pin native thread pools before numpy can be imported.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
LAYOUT = json.loads((BENCH_DIR / "layout.json").read_text(encoding="utf-8"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_REPS = 9

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

MODULES = ("geometry", "splitting", "packer", "verifier", "documents", "cli")


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_splitpack() -> types.SimpleNamespace:
    """Import splitpack afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "splitpack" or m.startswith("splitpack.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("splitpack")
    except ImportError as exc:
        raise SetupError(f"cannot import splitpack from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent != SRC / "splitpack":
        raise SetupError(f"splitpack was imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"splitpack.{m}") for m in MODULES}
    )


def run_pass(workload, tracer, digest, problems) -> list[float]:
    """Run every instance once; returns the call time of each, in seconds."""
    times = []
    gc.collect()
    for i, inst in enumerate(workload.instances):
        if tracer is not None:
            tracer.instance = i
        start = time.perf_counter()
        try:
            result = workload.run(inst)
            problem = None
        except Exception as exc:  # an instance that raises counts as failed
            result, problem = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if problem is None:
            problem = workload.check(inst, result, digest)
        if problem is not None:
            problems.append(f"instance {i}: {problem}")
    return times


def traced_pass(workload, tracer, problems) -> float:
    tracer.install()
    try:
        return sum(run_pass(workload, tracer, None, problems))
    finally:
        tracer.uninstall()


def percentile_ms(latencies: list, q: int):
    """The q-th percentile in ms, or None when fewer than TAIL_SAMPLES lie beyond it."""
    if len(latencies) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(latencies, n=100)[q - 1] * 1e3


def layer_metrics(tracer, traced_s: float, untraced_pass_s: float) -> dict:
    times = tracer.layer_times()
    total, self_ms, gc_ms = times["total"], times["self"], times["gc"]
    counts = tracer.counts
    return {
        "splitting.from_areas_ms": (total.get("splitting.from_areas", 0.0), "ms"),
        "splitting.split_ms": (
            total.get("splitting.split", 0.0) + total.get("splitting.weighted_split", 0.0), "ms"),
        "splitting.split_calls": (counts["splitting.split_calls"], "count"),
        "splitting.elements_moved": (counts["splitting.elements_moved"], "count"),
        "packer.pack_ms": (total.get("packer.pack", 0.0), "ms"),
        "packer.self_ms": (self_ms.get("packer.pack", 0.0), "ms"),
        "packer.hats": (counts["packer.hats"], "count"),
        "packer.max_depth": (counts["packer.max_depth"], "count"),
        "packer.gc_ms": (gc_ms.get("packer", 0.0), "ms"),
        "verifier.verify_ms": (total.get("verifier.verify", 0.0), "ms"),
        "verifier.checks": (counts["verifier.checks"], "count"),
        "verifier.gc_ms": (gc_ms.get("verifier", 0.0), "ms"),
        "verifier.peak_alloc_mb": (tracer.verify_peak_alloc / 2**20, "MB"),
        "verifier.worst_slack_rel": (
            tracer.worst_slack_rel if tracer.worst_slack_rel != float("inf") else 0.0, "ratio"),
        "documents.from_tree_ms": (total.get("documents.from_tree", 0.0), "ms"),
        "documents.to_json_ms": (total.get("documents.to_json", 0.0), "ms"),
        "documents.json_bytes": (counts["documents.json_bytes"], "bytes"),
        "documents.gc_ms": (gc_ms.get("documents", 0.0), "ms"),
        "documents.parse_ms": (total.get("documents.parse", 0.0), "ms"),
        "documents.to_tree_ms": (total.get("documents.to_tree", 0.0), "ms"),
        "svg.render_ms": (total.get("svg.render", 0.0), "ms"),
        "svg.bytes": (counts["svg.bytes"], "bytes"),
        "cli.self_ms": (self_ms.get("cli.main", 0.0), "ms"),
        "gc.collections": (tracer.gc_collections, "count"),
        "gc.pause_ms": (tracer.gc_pause_ms, "ms"),
        "trace.overhead_pct": ((traced_s / untraced_pass_s - 1.0) * 100.0, "%"),
    }


def machine_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "thread_pins": THREAD_PINS,
    }


def measure(args) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        return _measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(workload_class, seed: int, workdir: Path):
    """Import splitpack afresh and build the workload; returns (sp, workload, seconds)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    sp = import_splitpack()
    workload = workload_class(sp, seed, str(workdir))
    return sp, workload, time.perf_counter() - start


def _measure(args, workload_class, workdir: Path) -> tuple[dict, dict]:
    import checks  # imported before set-up, which it is not part of

    # The first set-up builds the workload that is timed; the others are only
    # timed themselves, spread over the run between passes, so that their
    # median is not one moment of a shared host's changing load.
    sp, workload, first = set_up(workload_class, args.seed, workdir)
    setup_times = [first]
    spare = workdir / "spare"

    problems: list[str] = []
    digest = hashlib.sha256()
    passes: list[list[float]] = []
    while not passes or sum(map(sum, passes)) < args.seconds:
        passes.append(run_pass(workload, None, None if passes else digest, problems))
        if len(setup_times) < SETUP_REPS and (
            sum(map(sum, passes)) >= args.seconds * len(setup_times) / SETUP_REPS
        ):
            setup_times.append(set_up(workload_class, args.seed, spare)[2])
    while len(setup_times) < SETUP_REPS:
        setup_times.append(set_up(workload_class, args.seed, spare)[2])
    shutil.rmtree(spare, ignore_errors=True)
    attempted = sum(map(len, passes))
    # Each instance's median call over the passes: it spans the host's changes
    # of speed over the whole run, and one slow call (the first, say) cannot
    # move it.
    typical = [statistics.median(times) for times in zip(*passes)]
    fastest = [min(times) for times in zip(*passes)]
    every_call = [t for times in passes for t in times]
    p99 = percentile_ms(every_call, 99)
    circles = [inst.circles for inst in workload.instances]
    end_to_end = {
        "circles_per_s": (sum(circles) / sum(typical), "1/s"),
        "latency_ms.p50": (statistics.median(typical) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "placements_sha256": digest.hexdigest(),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "samples": {"instances": len(typical), "passes": len(passes), "setup_s": setup_times},
        # the same figures over each instance's fastest call, and the tail,
        # which only every call has samples enough for
        "every_call": {
            "fastest_circles_per_s": sum(circles) / sum(fastest),
            "fastest_latency_ms.p50": statistics.median(fastest) * 1e3,
            "latency_ms.p99": p99,
            "calls": len(every_call),
            "beyond_p99": None if p99 is None else sum(t * 1e3 > p99 for t in every_call),
        },
    }

    if args.trace:
        from tracing import Tracer

        tracer = Tracer(sp)
        traced_s = traced_pass(workload, tracer, problems)
        attempted += len(workload.instances)
        if tracer.counts["verifier.checks"]:
            # tracemalloc slows every allocation, so it gets a pass of its own
            alloc = Tracer(sp, measure_alloc=True)
            traced_pass(workload, alloc, problems)
            attempted += len(workload.instances)
            tracer.verify_peak_alloc = alloc.verify_peak_alloc
        untraced_s = statistics.median(sum(times) for times in passes)
        layers = layer_metrics(tracer, traced_s, untraced_s)
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["exact_counts"] = dict(tracer.counts)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    control = checks.negative_control(sp, workload.control_document(), str(workdir))
    record["failed_fraction"] = len(problems) / attempted
    record["problems"] = problems[:20]
    record["negative_control"] = control or "rejected by every checker"
    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": not problems and not control,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m["name"]: record[kind][m["name"]] for m in SPEC[kind]},
    }
    return record, result


def print_report(record: dict, result: dict) -> None:
    samples, every = record["samples"], record["every_call"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{samples['passes']} pass(es) of {samples['instances']} instances")
    notes = {
        "circles_per_s": f"over each instance's median of {samples['passes']} calls",
        "latency_ms.p50": f"{samples['instances']} samples, each instance's median call",
        "setup_s": f"median of {len(samples['setup_s'])} set-ups",
    }
    for name, m in record["end_to_end"].items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}  ({notes.get(name, 'whole process')})")
    print(f"  {'fastest: circles_per_s':<26} {every['fastest_circles_per_s']:.6g} 1/s")
    print(f"  {'fastest: latency p50':<26} {every['fastest_latency_ms.p50']:.6g} ms  "
          f"({samples['instances']} samples, each instance's fastest call)")
    if every["latency_ms.p99"] is None:
        print(f"  {'every call: latency p99':<26} n/a  ({every['calls']} samples; fewer than "
              f"{TAIL_SAMPLES} would lie beyond it)")
    else:
        print(f"  {'every call: latency p99':<26} {every['latency_ms.p99']:.6g} ms  "
              f"({every['calls']} samples, {every['beyond_p99']} beyond it)")
    print(f"  {'failed_fraction':<26} {record['failed_fraction']:.6g}  "
          f"({result['failed']} of {result['attempted']} calls)")
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    print(f"  placements sha256 {record['placements_sha256']}")
    if "exact_counts" in record:
        print("  exact counts " + json.dumps(record["exact_counts"], sort_keys=True))
    print(f"  negative control: {record['negative_control']}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=LAYOUT["default_seed"])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this JSON file")
    args = parser.parse_args(argv)
    try:
        record, result = measure(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        record["machine"] = machine_info()
        record["result"] = result
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print_report(record, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
