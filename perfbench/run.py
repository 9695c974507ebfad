#!/usr/bin/env python3
"""seqent benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload iet-joins --seed 1 --seconds 20 --trace 0

Run it from the root of a seqent checkout; seqent is imported from ./src.

``--trace 0`` repeats the workload's task set for about ``--seconds``
seconds with tracing off and reports the end-to-end metrics:

* ``wall_s``: time to solution of the task set, the sum over tasks of each
  task's median time over the passes;
* ``setup_s``: median over SETUP_PROBES fresh processes of the time to
  import seqent and build the workload's inputs;
* ``peak_rss_mb``: peak resident memory of this process;
* ``solved_frac``: share of task runs that returned and passed their checks
  (1 - failed_frac).

``--trace 1`` runs the task set once untraced and once traced and reports
the per-layer metrics of spans.py, ``harness.cpu_s`` and
``harness.trace_overhead_s`` (traced minus untraced time to solution).  The
spans go to perfbench/_out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every task run that raised or failed a check; ``correct`` is false when any
task outside tasks.KNOWN_DEFECTS failed.
"""
import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# BLAS and OpenMP pools read these when numpy is first imported, which
# happens in import_seqent(); set-up probes inherit them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def import_seqent():
    """Put ./src first on the path and import seqent from it, or exit with an error."""
    if not (SRC / "seqent" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'seqent'} not found; run from a seqent checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import seqent

    if Path(seqent.__file__).resolve().parent != (SRC / "seqent").resolve():
        sys.exit(f"error: imported seqent from {seqent.__file__}, not from {SRC}")
    return seqent


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "seqent").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(seed):
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup(workload, seed, probes):
    """Median set-up time over fresh processes (import seqent + build inputs)."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times), times


def run_pass(task_list, inp, rec=None):
    """Run every task once; returns {id: result}, {id: seconds}."""
    import tasks

    results, times = {}, {}
    gc.collect()
    for task in task_list:
        if rec is not None:
            rec.task = task.id
        t0 = time.perf_counter()
        try:
            results[task.id] = task.run(inp)
        except Exception:  # a task that raises is a failed task, not a crashed benchmark
            results[task.id] = tasks.Raised(traceback.format_exc(limit=4).strip())
        times[task.id] = time.perf_counter() - t0
    return results, times


def check_pass(task_list, results, inp, reference, failed, attempted):
    import tasks

    for task in task_list:
        attempted[task.id] = attempted.get(task.id, 0) + 1
        problems = tasks.check(task, results[task.id], inp, reference)
        if problems:
            failed.setdefault(task.id, []).append(problems)


def run_benchmark(workload, seed, seconds, trace, tiny=False):
    """Measure one workload; returns the result record (see module docstring)."""
    import tasks

    reference = json.loads((HERE / "reference.json").read_text())["tasks"]
    task_list = tasks.tasks_for(workload, tiny)
    OUT_DIR.mkdir(exist_ok=True)
    attempted, failed = {}, {}
    record = {"workload": workload, "seconds": seconds, "trace": trace, "tiny": tiny,
              "stamp": stamp(seed)}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        inp = tasks.build(workload, seed, workdir)
        if trace:
            record.update(_traced(workload, seed, task_list, inp, reference, failed, attempted))
        else:
            record.update(_untraced(workload, seed, seconds, tiny, task_list, inp, reference,
                                    failed, attempted))
    n_failed = sum(len(v) for v in failed.values())
    record.update({
        "correct": set(failed) <= set(tasks.KNOWN_DEFECTS),
        "attempted": sum(attempted.values()),
        "failed": n_failed,
        "failures": {k: v[0] for k, v in failed.items()},
        "known_defects": {k: tasks.KNOWN_DEFECTS[k] for k in failed if k in tasks.KNOWN_DEFECTS},
    })
    if not trace:
        record["metrics"]["solved_frac"] = (1 - n_failed / record["attempted"], "ratio")
    return record


def _untraced(workload, seed, seconds, tiny, task_list, inp, reference, failed, attempted):
    setup_s, setup_samples = measure_setup(workload, seed, 1 if tiny else SETUP_PROBES)
    per_task = {t.id: [] for t in task_list}
    pass_walls = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        results, times = run_pass(task_list, inp)
        pass_walls.append(time.perf_counter() - p0)
        for task_id, t in times.items():
            per_task[task_id].append(t)
        check_pass(task_list, results, inp, reference, failed, attempted)
        del results
        elapsed = time.perf_counter() - start
        # another pass only if it is expected to end within the requested duration
        if tiny or elapsed + statistics.median(pass_walls) > seconds:
            break
    task_medians = {k: statistics.median(v) for k, v in per_task.items()}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "passes": len(pass_walls),
        "pass_walls_s": pass_walls,
        "task_median_s": task_medians,
        "task_samples_s": per_task,
        "setup_samples_s": setup_samples,
        "metrics": {
            "wall_s": (sum(task_medians.values()), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        },
    }


def _traced(workload, seed, task_list, inp, reference, failed, attempted):
    import spans
    import tasks

    c0 = time.process_time()
    results, untraced = run_pass(task_list, inp)
    cpu_s = time.process_time() - c0
    check_pass(task_list, results, inp, reference, failed, attempted)
    del results
    rec = spans.Recorder()
    with spans.installed(rec, extra_modules=[tasks]):
        results, traced = run_pass(task_list, inp, rec)
    check_pass(task_list, results, inp, reference, failed, attempted)
    wall_untraced, wall_traced = sum(untraced.values()), sum(traced.values())
    metrics = spans.layer_metrics(rec)
    metrics["harness.cpu_s"] = (cpu_s, "s")
    metrics["harness.trace_overhead_s"] = (wall_traced - wall_untraced, "s")
    span_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    rec.write(span_file, {"workload": workload, "seed": seed})
    return {"wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
            "span_file": str(span_file.relative_to(ROOT)), "metrics": metrics}


def summary_line(record):
    if record["trace"]:
        shown = (f"untraced {record['wall_untraced_s']:.4g} s, traced {record['wall_traced_s']:.4g} s,"
                 f" spans in {record['span_file']}")
    else:
        shown = " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in record["metrics"].items())
        shown += f"; {record['passes']} passes, {len(record['setup_samples_s'])} set-up probes"
    return (f"# {record['workload']} seed={record['stamp']['seed']}: {shown}; failed_frac="
            f"{record['failed'] / record['attempted']:.4g} ({record['failed']}/{record['attempted']}"
            " task runs)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_seqent()
    import tasks

    if args.workload not in tasks.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(tasks.WORKLOADS)}")
    record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print("# stamp " + json.dumps(record["stamp"]))
    for task_id, problems in record["failures"].items():
        known = " (known defect)" if task_id in record["known_defects"] else ""
        print(f"# FAIL{known} {task_id}: {problems[0]}")
    print(summary_line(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
