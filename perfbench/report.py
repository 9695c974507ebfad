#!/usr/bin/env python3
"""Run every workload over several seeds and print each end-to-end metric.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out FILE]

Each (workload, seed) is one fresh ``run.py`` process with BENCHMARK.json's
run_seconds.  For every metric the table gives its unit, the median, the
quartiles (``statistics.quantiles(n=4)``), the spread (interquartile range
over the median) next to the metric's bound, and the number of runs; with
``--trace 0`` it also gives failed_frac.  ``--out`` writes the same numbers
as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["stamp"] = next(json.loads(x[len("# stamp "):]) for x in lines if x.startswith("# stamp "))
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, bench["run_seconds"], args.trace) for s in seeds]
        rows = {}
        for name, metric in runs[0]["metrics"].items():
            rows[name] = {"unit": metric["unit"],
                          **summarize([r["metrics"][name]["value"] for r in runs])}
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        stamp = {k: v for k, v in runs[0]["stamp"].items() if k != "seed"}
        report[workload] = {"seeds": seeds, "stamp": stamp, "metrics": rows, "failed": failed,
                            "attempted": attempted, "correct": all(r["correct"] for r in runs)}
        print(f"\n{workload}: {len(seeds)} runs, failed_frac={failed / attempted:.4g} "
              f"({failed}/{attempted} task runs), correct={report[workload]['correct']}")
        for name, row in rows.items():
            bound = bounds.get(name)
            limit = f" (bound {bound})" if bound is not None else ""
            print(f"  {name:40s} {row['unit']:6s} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f}{limit} n={row['n']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
