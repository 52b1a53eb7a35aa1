"""Run every workload, untraced and then traced, and record the results.

    python3 bench/suite.py [--seed N] [--seconds S] [--label NAME]

This includes the ungated ``certify-small`` (see layout.json). Each run is its
own ``bench/run.py`` process. The report of every run is
printed: the end-to-end metrics with their units and sample counts, the
failed fraction, the per-layer metrics of the traced run, the exact work
counts, the placement digest and the negative control's verdict. With
``--label`` the records, with the machine description, are also written to
``bench/results/BENCH_<label>.json``. Exits 1 when any output check or
negative control fails.
"""

import argparse
import json
import sys

from procs import BENCH_DIR, LAYOUT, SPEC, run_workload

KEPT = ("seed", "seconds", "end_to_end", "samples", "every_call", "failed_fraction",
        "placements_sha256", "negative_control", "problems")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=LAYOUT["default_seed"])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--label", help="write bench/results/BENCH_<label>.json")
    args = parser.parse_args(argv)

    workloads = {}
    machine = None
    ok = True
    for workload in LAYOUT["workloads"]:
        entry = {}
        for trace in (0, 1):
            record = run_workload(workload, args.seed, args.seconds, trace)
            print(record["stdout"].rsplit("\n", 2)[0], flush=True)
            ok &= record["exit_code"] == 0 and record["result"]["correct"]
            machine = record["machine"]
            if trace:
                entry["traced"] = {k: record[k] for k in
                                   ("per_layer", "exact_counts", "placements_sha256", "negative_control")}
            else:
                entry.update({k: record[k] for k in KEPT})
        entry["gated"] = LAYOUT["workloads"][workload]["gated"]
        workloads[workload] = entry

    if args.label:
        out = BENCH_DIR / "results" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        document = {"label": args.label, "machine": machine, "workloads": workloads}
        out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out.relative_to(BENCH_DIR.parent)}")
    print("all outputs and negative controls checked out" if ok else "FAILED: see the reports above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
