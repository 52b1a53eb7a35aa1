"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/spread.py --workloads pack-large --seeds 1-10

Each run is a separate ``bench/run.py`` process with ``--trace 0``, one at a
time. For every workload and metric this prints the median and the quartile
distance (as given by ``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound from BENCHMARK.json: a steady
benchmark keeps every spread but that of ``setup_s`` below that third.
"""

import argparse
import statistics
import sys

from procs import SPEC, run_workload


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in SPEC["end_to_end"]}
        for seed in seeds:
            record = run_workload(workload, seed, args.seconds, 0)
            result = record["result"]
            if record["exit_code"] != 0 or not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed:\n{record['stdout']}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        for metric in SPEC["end_to_end"]:
            vals = values[metric["name"]]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
            limit = metric["bound"] / 3
            flag = "ok" if share < limit or metric["name"] == "setup_s" else "WIDE"
            steady &= flag == "ok"
            print(f"  {workload:<14} {metric['name']:<16} median {median:.6g} "
                  f"spread {share:.4f} (third of bound {limit:.4f}) {flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
