"""Self-test of the benchmark: deterministic outputs and a working negative control.

    python3 bench/selftest.py [--workloads a,b] [--seed N]

For every workload, two traced runs with the same seed must report identical
exact work counts and placement digests, and a run with the next seed must
report a different digest. Every run must also pass its output checks and
its negative control. Exits 1 when any of this does not hold.
"""

import argparse
import sys

from procs import LAYOUT, run_workload

# One pass is enough: the counts and the digest come from the first pass.
SECONDS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(LAYOUT["workloads"]))
    parser.add_argument("--seed", type=int, default=LAYOUT["default_seed"])
    args = parser.parse_args(argv)

    failures = []
    for workload in args.workloads.split(","):
        first, second = (run_workload(workload, args.seed, SECONDS, 1) for _ in range(2))
        other = run_workload(workload, args.seed + 1, SECONDS, 0)
        for record in (first, second, other):
            if record["exit_code"] != 0 or not record["result"]["correct"]:
                failures.append(f"{workload} seed {record['seed']}: run failed\n{record['stdout']}")
        if first["exact_counts"] != second["exact_counts"]:
            failures.append(f"{workload}: exact counts differ between two runs of seed {args.seed}: "
                            f"{first['exact_counts']} vs {second['exact_counts']}")
        if first["placements_sha256"] != second["placements_sha256"]:
            failures.append(f"{workload}: placement digests differ between two runs of seed {args.seed}")
        if first["placements_sha256"] == other["placements_sha256"]:
            failures.append(f"{workload}: seeds {args.seed} and {args.seed + 1} give the same digest")
        print(f"{workload}: counts {first['exact_counts']}\n"
              f"  digest {first['placements_sha256']}, negative control: {first['negative_control']}",
              flush=True)
    for failure in failures:
        print("FAIL " + failure)
    print("self-test passed" if not failures else f"self-test failed ({len(failures)} problems)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
