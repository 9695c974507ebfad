#!/usr/bin/env python3
"""Record reference.json: the exact and approximate outputs of every task.

    python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference (the benchmark's seed
commit); later commits are checked against what it stores.  Monte Carlo
tasks store nothing: their oracles are exact values.
"""
import json
import tempfile

import run


def main():
    run.import_seqent()
    import tasks

    out = {"recorded_from": {k: run.stamp(None)[k] for k in ("git_sha", "src_sha256")},
           "tasks": {}}
    run.OUT_DIR.mkdir(exist_ok=True)
    for workload in tasks.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
            inp = tasks.build(workload, 0, workdir)
            for task in tasks.tasks_for(workload):
                if task.exact or task.approx:
                    out["tasks"][task.id] = json.loads(json.dumps(tasks.digest(task, task.run(inp))))
                    print(f"recorded {workload}/{task.id}", flush=True)
    # one line per task keeps the file diffable without a line per float
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in out["tasks"].items()]
    (run.HERE / "reference.json").write_text(
        '{"recorded_from": ' + json.dumps(out["recorded_from"]) + ',\n"tasks": {\n'
        + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main()
