"""Workloads of the seqent benchmark: set-up, tasks and correctness oracles.

A workload is a fixed list of tasks run against the public API of seqent.
``build(workload, seed, workdir)`` makes every system, partition, family and
test family its tasks use; that is the set-up that ``setup_s`` times.  Exact
inputs are fixed, so their cost does not depend on the seed; the seed drives
every Monte Carlo seed.

A task returns its raw outputs and :func:`check` judges them:

* ``exact`` outputs (fractions as strings, atom counts, ledger lengths,
  entropy floats) must equal reference.json, recorded from the seed commit;
* ``approx`` outputs (scan distances) must match it within SCAN_REL_TOL;
* ``oracle`` checks are independent of the reference: analytic entropies,
  the ledger bound, Fibonacci rigidity times, exact baker decorrelation, and
  Monte Carlo estimates within MC_CI_MULTIPLE bootstrap half-widths of an
  exact value.  Monte Carlo outputs are never compared with the reference,
  so a declared change of sampling scheme is not counted as a failure.

Tasks call seqent through module attributes (``seqentropy.exact_join``), so
the traced run sees the same functions the library's own callers see.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

from seqent import cli, core, families, seqentropy, systems, weaklimits

# A Monte Carlo estimate passes when |estimate - exact| <= MC_CI_MULTIPLE *
# ci_halfwidth.  The half-width is a 95% bootstrap interval; at the seed
# commit no estimate of a correct task came closer than 1.2 half-widths to
# this limit over seeds 0..19.
MC_CI_MULTIPLE = 3.0
# Scan distances are float sums of exact correlations; a kernel that changes
# the summation order may move the last digits.
SCAN_REL_TOL = 1e-9
SCAN_ABS_TOL = 1e-12

# Tasks that fail on the seed commit for a documented reason.  They still
# count in ``failed``; a run stays ``correct`` while only these fail.
KNOWN_DEFECTS = {
    "baker-mc-64-65": "Monte Carlo samples are k/2^64, so 64 baker steps send x to 0 "
                      "and every label is constant (exact value 2 bits)",
}


@dataclass(frozen=True)
class Task:
    id: str
    run: Callable[[dict], Any]
    exact: Callable[[Any], dict] | None = None
    approx: Callable[[Any], dict] | None = None
    oracle: Callable[[Any, dict], list[str]] | None = None
    tiny: bool = False  # part of the fast self-test subset


class Raised:
    """Outcome of a task that raised instead of returning."""

    def __init__(self, text: str):
        self.text = text


# -- digests -------------------------------------------------------------------


def _text(v) -> str:
    if isinstance(v, (int, F, str)) or v is None:
        return str(v)
    return repr(float(v))


def fingerprint(values) -> list | dict:
    """Exact values as strings; long lists become count, ends and a hash."""
    items = [_text(v) for v in values]
    if len(items) <= 16:
        return items
    return {
        "n": len(items),
        "first": items[0],
        "last": items[-1],
        "sha256": hashlib.sha256("\n".join(items).encode()).hexdigest(),
    }


def _trace_rows(trace) -> dict:
    return {"rows": [[r.j, r.family_size, _text(r.entropy_bits), r.error] for r in trace.rows]}


def _join(res) -> dict:
    return {
        "atom_count": res.atom_count,
        "cut_count": len(res.partition.cuts),
        "measures": fingerprint(sorted(res.measures.entries)),
        "entropy_bits": _text(res.entropy_bits),
    }


def _scan_exact(report) -> dict:
    return {"events": fingerprint([m for m, _ in report.events]), "min_time": report.min_time}


def _scan_approx(report) -> dict:
    return {"values": [float(v) for _, v in report.values]}


# -- oracles -------------------------------------------------------------------


def _mc_within(estimate: float, halfwidth: float, exact: float) -> list[str]:
    err = abs(estimate - exact)
    if err <= MC_CI_MULTIPLE * halfwidth:
        return []
    return [f"Monte Carlo estimate {estimate!r} is {err:.4g} bits from the exact "
            f"{exact!r}; allowed {MC_CI_MULTIPLE} x half-width {halfwidth:.4g}"]


def _mc_task(task_id, system, partition, family, n_samples, exact, tiny=False):
    def run(i):
        return seqentropy.mc_join_entropy(i[system], i[partition], i[family], n_samples, i["seed"])

    def oracle(res, i):
        return _mc_within(res.entropy_bits, res.ci_halfwidth, exact(i))

    return Task(task_id, run, oracle=oracle, tiny=tiny)


def _fibonacci_records(pairs, m_cap: int) -> list[str]:
    """Record minima of a golden-rotation rigidity scan fall on Fibonacci times."""
    records, best = [], math.inf
    for m, v in pairs:
        if v < best:
            best = v
            records.append(m)
    want = sorted({f for f in systems.fibonacci_numbers(40) if f <= m_cap})
    if records != want:
        return [f"rigidity record times {records} are not the Fibonacci numbers {want}"]
    return []


def _baker_decorrelated(pairs, depth: int) -> list[str]:
    """dist to Theta is exactly 0 for m >= depth and positive below it."""
    bad = [m for m, v in pairs if (float(v) == 0.0) != (m >= depth)]
    return [f"baker dist-to-Theta has the wrong zero pattern at m={bad[:5]}"] if bad else []


def _ledger_bound(lengths, D) -> list[str]:
    bad = [n for n, b in enumerate(lengths) if b - lengths[0] > n * D]
    return [f"ledger bound B(n)-B(0) <= n*D fails at n={bad[:5]}"] if bad else []


def _product_rotation_exact(inp) -> float:
    """Entropy of the product-rotation quadrant join: the sum of the two 1D
    rotation joins of the halves partition (coordinates are independent)."""
    if "product_exact" not in inp:
        inp["product_exact"] = sum(
            seqentropy.exact_join(systems.IntervalExchange.rotation(a),
                                  core.IntervalPartition.halves(), inp["fam1to8"],
                                  signs="backward").entropy_bits
            for a in inp["product_angles"])
    return inp["product_exact"]


# -- iet-joins ------------------------------------------------------------------


def _iet_inputs(seed, workdir):
    lengths = (F(1, 5), F(2, 7), F(3, 11))
    return {
        "T4": systems.IntervalExchange(lengths + (1 - sum(lengths),), (3, 2, 1, 0)),
        "golden": systems.golden_rotation().to_iet(),
        "halves": core.IntervalPartition.halves(),
        "dyadic2": core.IntervalPartition.dyadic(2),
        "L_is_j": {j: families.make_progression_family(j, j) for j in range(1, 9)},
        "L_is_64": {j: families.make_progression_family(j, 64) for j in (1, 2, 4)},
        "times256": families.make_progression_family(1, 256),
    }


IET_TASKS = [
    Task("4iet-trace-j1to8",
         lambda i: seqentropy.entropy_trace(i["T4"], i["halves"], i["L_is_j"].__getitem__, range(1, 9)),
         exact=_trace_rows),
    Task("golden-join-256",
         lambda i: seqentropy.exact_join(i["golden"], i["dyadic2"], i["times256"]),
         exact=_join),
    Task("golden-trace-L64",
         lambda i: seqentropy.entropy_trace(i["golden"], i["halves"], i["L_is_64"].__getitem__, (1, 2, 4)),
         exact=_trace_rows, tiny=True),
    Task("4iet-asymmetry",
         lambda i: [seqentropy.asymmetry_ratio(i["T4"], i["halves"], 8, 3, 5, direction=d)
                    for d in ("forward", "backward")],
         exact=lambda r: {"ratios": fingerprint(r)}, tiny=True),
]


# -- weak-scans -----------------------------------------------------------------


def _scan_inputs(seed, workdir):
    return {
        "T3": systems.IntervalExchange((F(1, 3), F(1, 5), F(7, 15)), (2, 0, 1)),
        "golden": systems.golden_rotation().to_iet(),
        "baker": systems.BakerMap(),
        "intervals6": weaklimits.TestFamily.dyadic_intervals(6),
        "rects6": weaklimits.TestFamily.dyadic_rectangles(6),
    }


def _never_theta_close(report) -> list[str]:
    low = min(v for _, v in report.values)
    return [] if low > 0.05 else [f"golden rotation came within {low:.4g} of Theta"]


SCAN_TASKS = [
    Task("3iet-mixing-16",
         lambda i: weaklimits.mixing_time_scan(i["T3"], 0, 0.05, 16, i["intervals6"]),
         exact=_scan_exact, approx=_scan_approx),
    Task("golden-rigidity-2000",
         lambda i: weaklimits.rigidity_scan(i["golden"], 2000, 0.02, i["intervals6"]),
         exact=_scan_exact, approx=_scan_approx,
         oracle=lambda r, i: _fibonacci_records(r.values, 2000), tiny=True),
    Task("golden-mixing-10000",
         lambda i: weaklimits.mixing_time_scan(i["golden"], 0, 0.05, 10**4, i["intervals6"]),
         exact=_scan_exact, approx=_scan_approx,
         oracle=lambda r, i: _never_theta_close(r)),
    Task("baker-mixing-20",
         lambda i: weaklimits.mixing_time_scan(i["baker"], 0, 0.05, 20, i["rects6"]),
         exact=_scan_exact, approx=_scan_approx,
         oracle=lambda r, i: _baker_decorrelated(r.values, 6)),
]


# -- planar-mc ------------------------------------------------------------------


def _planar_inputs(seed, workdir):
    angles = (F(610, 987), F(377, 610))
    product = systems.RectangleExchange.product_rotations(*angles)
    q = F(1, 4)
    return {
        "seed": seed,
        "baker": systems.BakerMap(),
        "product": product,
        "product_angles": angles,
        "identity": systems.RectangleExchange.identity(),
        "swap": systems.RectangleExchange.vertical_swap(),
        "vertical_halves": core.RectanglePartition.vertical_halves(),
        "quadrants": core.RectanglePartition.quadrants(),
        "sources": core.RectanglePartition(tuple((r, k) for k, r in enumerate(product.sources))),
        # the 3-atom partition of acceptance criterion 8
        "three_atoms": core.RectanglePartition((
            (core.Rect(F(0), q, F(0), F(1)), "a"),
            (core.Rect(q, F(1), F(0), F(3, 8)), "b"),
            (core.Rect(q, F(1), F(3, 8), F(1)), "c"),
        )),
        "fam1to5": families.explicit_family(range(1, 6)),
        "fam1to8": families.explicit_family(range(1, 9)),
        "fam123": families.explicit_family([1, 2, 3]),
        "fam64_65": families.explicit_family([64, 65]),
    }


# masses of the 3-atom partition: 1/4, (3/4)(3/8), (3/4)(5/8)
THREE_ATOM_BITS = -sum(p * math.log2(p) for p in (1 / 4, 9 / 32, 15 / 32))


def _ledger_task(task_id, system, partition, N, tiny=False):
    def run(i):
        return seqentropy.boundary_growth(i[system], i[partition], N)

    def oracle(lengths, i):
        return _ledger_bound(lengths, systems.discontinuity_length(i[system]))

    return Task(task_id, run, exact=lambda r: {"lengths": fingerprint(r)}, oracle=oracle, tiny=tiny)


PLANAR_TASKS = [
    _mc_task("baker-mc-1to5", "baker", "vertical_halves", "fam1to5", 10**4, lambda i: 5.0),
    _mc_task("product-rotations-mc-1to8", "product", "quadrants", "fam1to8", 10**4,
             _product_rotation_exact),
    _mc_task("identity-rect-mc-123", "identity", "three_atoms", "fam123", 10**4,
             lambda i: THREE_ATOM_BITS, tiny=True),
    _mc_task("baker-mc-64-65", "baker", "vertical_halves", "fam64_65", 1000, lambda i: 2.0, tiny=True),
    _ledger_task("product-rotations-ledger-200", "product", "sources", 200),
    _ledger_task("vertical-swap-ledger-50", "swap", "quadrants", 50, tiny=True),
]


# -- cli-presets ----------------------------------------------------------------


def _cli_inputs(seed, workdir):
    return {"seed": seed, "workdir": Path(workdir)}


def _run_preset(name: str, inp: dict) -> dict:
    out_dir = inp["workdir"] / name
    argv = ["run", "--config", f"preset:{name}", "--out-dir", str(out_dir), "--format", "both"]
    if "seed" in cli.PRESETS[name]:
        argv += ["--seed", str(inp["seed"])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc_run = cli.main(argv)
        rc_validate = cli.main(["validate", "--config", f"preset:{name}"])
    return {"rc": [rc_run, rc_validate], "output": buf.getvalue(), "out_dir": out_dir, "name": name}


def _read_outputs(res) -> tuple[list[dict], dict]:
    text = (res["out_dir"] / f"{res['name']}.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    envelope = json.loads((res["out_dir"] / f"{res['name']}.json").read_text())
    return rows, envelope


def _is_scan(name: str) -> bool:
    return cli.PRESETS[name]["experiment"] in ("mixing-scan", "rigidity-scan")


def _scan_rows(rows) -> list[dict]:
    return [r for r in rows if r["m"] != "min_time"]


def _preset_exact(res) -> dict:
    name = res["name"]
    out = {"rc": res["rc"], "last_line": res["output"].strip().splitlines()[-1:]}
    if res["rc"][0] != 0:
        return out
    rows, envelope = _read_outputs(res)
    out["json_rows"] = len(envelope["rows"])
    if "seed" in cli.PRESETS[name]:
        return out  # Monte Carlo output: judged by the oracle only
    if _is_scan(name):
        # scan distances are judged with a tolerance, the rest exactly
        kept = [dict(r, value="") if r["m"] != "min_time" else r for r in rows]
        out["csv"] = fingerprint(json.dumps(r, sort_keys=True) for r in kept)
    else:
        csv_bytes = (res["out_dir"] / f"{name}.csv").read_bytes()
        out["csv_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
    return out


def _preset_approx(res) -> dict:
    if res["rc"][0] != 0 or not _is_scan(res["name"]):
        return {}
    rows, _ = _read_outputs(res)
    return {"values": [float(r["value"]) for r in _scan_rows(rows)]}


def _numeric_rows(rows, key):
    return [r for r in rows if r.get(key, "") != "" and r.get("j") not in ("max-proxy", "min-proxy")]


def _preset_oracle(res, inp) -> list[str]:
    name = res["name"]
    if res["rc"][0] != 0:
        return []
    rows, _ = _read_outputs(res)
    if name in ("bernoulli-progression", "geom-2n-family"):
        bad = [r["j"] for r in _numeric_rows(rows, "h_j") if float(r["h_j"]) != 1.0]
        return [f"fair Bernoulli h_j is not exactly 1 bit at j={bad}"] if bad else []
    if name == "rect-boundary-ledger":
        bad = [r["n"] for r in rows if F(r["excess_over_linear"]) > 0]
        return [f"ledger bound B(n)-B(0) <= n*D fails at n={bad[:5]}"] if bad else []
    if name == "baker-triple-correlation":
        bad = [(r["m"], r["n"]) for r in rows if F(r["value"]) != F(1, 8)]
        return [f"baker triple correlation is not 1/8 at {bad}"] if bad else []
    if name == "baker-mc-entropy":
        row = rows[0]
        exact = float(len(cli.PRESETS[name]["family"]["members"]))  # 1 bit per time
        return _mc_within(float(row["entropy_bits"]), float(row["ci_halfwidth"]), exact)
    if _is_scan(name):
        scan = [(int(r["m"]), float(r["value"])) for r in _scan_rows(rows)]
        if name == "golden-rigidity-scan":
            return _fibonacci_records(scan, cli.PRESETS[name]["m_cap"])
        if name == "baker-mixing-scan":
            return _baker_decorrelated(scan, cli.PRESETS[name]["test_family"]["depth"])
    return []


def _preset_task(name: str, tiny: bool) -> Task:
    return Task(f"preset-{name}", lambda i: _run_preset(name, i),
                exact=_preset_exact, approx=_preset_approx, oracle=_preset_oracle, tiny=tiny)


CLI_TASKS = [_preset_task(name, name in ("bernoulli-progression", "baker-triple-correlation"))
             for name in cli.PRESETS]


# -- registry and checking ---------------------------------------------------------


WORKLOADS: dict[str, tuple[Callable, list[Task]]] = {
    "iet-joins": (_iet_inputs, IET_TASKS),
    "weak-scans": (_scan_inputs, SCAN_TASKS),
    "planar-mc": (_planar_inputs, PLANAR_TASKS),
    "cli-presets": (_cli_inputs, CLI_TASKS),
}


def build(workload: str, seed: int, workdir) -> dict:
    """Every input the workload's tasks use (the timed set-up)."""
    return WORKLOADS[workload][0](seed, workdir)


def tasks_for(workload: str, tiny: bool = False) -> list[Task]:
    tasks = WORKLOADS[workload][1]
    return [t for t in tasks if t.tiny] if tiny else list(tasks)


def digest(task: Task, result) -> dict:
    """What reference.json holds for a task."""
    return {
        "exact": task.exact(result) if task.exact else {},
        "approx": task.approx(result) if task.approx else {},
    }


def _approx_problems(got: dict, want: dict) -> list[str]:
    problems = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if a is None or b is None or len(a) != len(b):
            problems.append(f"{key}: {len(a or [])} values, reference has {len(b or [])}")
            continue
        bad = [k for k, (x, y) in enumerate(zip(a, b))
               if not abs(x - y) <= SCAN_ABS_TOL + SCAN_REL_TOL * abs(y)]
        if bad:
            k = bad[0]
            problems.append(f"{key}: {len(bad)} values off the reference, first at index {k}: "
                            f"{a[k]!r} vs {b[k]!r}")
    return problems


def check(task: Task, result, inp: dict, reference: dict) -> list[str]:
    """Problems found in one task's outputs; empty when it passed."""
    if isinstance(result, Raised):
        return [f"raised: {result.text}"]
    problems = []
    if task.exact or task.approx:
        want = reference.get(task.id)
        if want is None:
            return ["no reference recorded for this task"]
        got = digest(task, result)
        # compare through JSON so tuples, lists and float text match the stored form
        got = json.loads(json.dumps(got))
        for key in sorted(set(got["exact"]) | set(want["exact"])):
            if got["exact"].get(key) != want["exact"].get(key):
                problems.append(f"{key}: {got['exact'].get(key)!r} != reference "
                                f"{want['exact'].get(key)!r}")
        problems += _approx_problems(got["approx"], want["approx"])
    if task.oracle:
        problems += task.oracle(result, inp)
    return problems
