#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (about 15 s).

    python3 perfbench/selftest.py

* In tiny mode (one pass of each workload's cheapest tasks) the metrics
  emitted are exactly those BENCHMARK.json declares, with their units, with
  tracing off and on, and only known defects fail.
* A planted wrong reference value (float, fraction, scan distance) is
  caught as a failure, and a change inside the scan tolerance is not.
* Without ./src the benchmark exits non-zero without printing a result.
"""
import copy
import json
import shutil
import subprocess
import sys
import tempfile

import run

run.import_seqent()

import tasks  # noqa: E402


def check_tiny_runs(bench):
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            record = run.run_benchmark(workload, 1, 0, trace, tiny=True)
            got = {k: u for k, (_, u) in record["metrics"].items()}
            assert got == want[trace], (workload, trace, set(got) ^ set(want[trace]))
            assert all(isinstance(v, (int, float)) for v, _ in record["metrics"].values())
            assert record["attempted"] >= 1 and record["correct"], (workload, record["failures"])
            assert set(record["failures"]) <= set(tasks.KNOWN_DEFECTS), record["failures"]
            print(f"  tiny {workload} trace={trace}: {len(got)} metrics, "
                  f"{record['failed']}/{record['attempted']} failed", flush=True)
        if workload == "planar-mc":
            assert "baker-mc-64-65" in record["failures"], "the known baker defect did not show"


def _task(task_id):
    for workload, (_, task_list) in tasks.WORKLOADS.items():
        for task in task_list:
            if task.id == task_id:
                return workload, task
    raise KeyError(task_id)


def check_planted_references():
    reference = json.loads((run.HERE / "reference.json").read_text())["tasks"]

    def plant(entry, edit):
        bad = copy.deepcopy(reference)
        edit(bad[entry])
        return bad

    def bump_last(fp):
        fp["last"] = fp["last"] + "1"

    cases = [
        ("4iet-asymmetry", lambda e: e["exact"]["ratios"].__setitem__(0, "1.3824375324037442"), True),
        ("vertical-swap-ledger-50", lambda e: bump_last(e["exact"]["lengths"]), True),
        ("golden-rigidity-2000",
         lambda e: e["approx"]["values"].__setitem__(100, e["approx"]["values"][100] * (1 + 1e-6)), True),
        ("golden-rigidity-2000",
         lambda e: e["approx"]["values"].__setitem__(100, e["approx"]["values"][100] * (1 + 1e-12)), False),
    ]
    results = {}
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        for task_id, edit, should_fail in cases:
            workload, task = _task(task_id)
            if task_id not in results:
                inp = tasks.build(workload, 1, workdir)
                results[task_id] = (task.run(inp), inp)
                assert tasks.check(task, *results[task_id], reference) == [], task_id
            problems = tasks.check(task, *results[task_id], plant(task_id, edit))
            assert bool(problems) == should_fail, (task_id, problems)
            print(f"  planted {task_id}: {'caught' if problems else 'accepted within tolerance'}")


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "iet-joins",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=60)
        assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
        print(f"  bare directory: exit {out.returncode}")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT_DIR.mkdir(exist_ok=True)
    check_tiny_runs(bench)
    check_planted_references()
    check_bare_directory()
    print("selftest ok")


if __name__ == "__main__":
    main()
