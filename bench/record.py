"""Run the benchmark over several seeds and record medians and spreads.

Run from the repository root, for example:

    python3 bench/record.py --seeds 1-10 --trace 0 --out bench/BENCH_1.json

Each (workload, seed) pair is one run of ``run.py``, one after the other.
The report goes under the key ``trace0`` or ``trace1`` of the output file;
an existing file keeps its other key, so one file can hold both modes.
For every metric the file keeps the values, their median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. Run details (the
line before each result) are kept per run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    *_, info, result = done.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(result), **json.loads(info)}


def spread_table(runs: list) -> dict:
    table = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                 "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        table[name] = entry
    return table


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = Path(args.out)
    document = json.loads(out.read_text()) if out.exists() else {}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        table = spread_table(runs)
        report["workloads"][workload] = {
            "all_correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": table, "runs": runs}
        for name, entry in table.items():
            bound = bounds.get(name)
            note = f" (bound {bound})" if bound is not None else ""
            print(f"{workload:14s} {name:44s} median {entry['median']:.6g} "
                  f"{entry['unit']:6s} spread {entry.get('spread')}{note}", flush=True)
    report["meta"] = next(iter(report["workloads"].values()))["runs"][0]["meta"]
    document[f"trace{args.trace}"] = report
    out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
