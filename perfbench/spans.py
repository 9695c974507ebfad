"""Span recorder and per-layer metrics for the traced benchmark run.

The recorder wraps public functions of each seqent layer from outside the
library.  A span holds (id, name, start, end, parent, task); self time is
the span's duration minus the time its child spans cover, accumulated as
spans close.  Counters are taken at the same boundaries from the wrapped
call's arguments and result.

A name is patched wherever a caller looks it up: methods on their class,
functions in every ``seqent`` module that holds them (``seqentropy`` and
``weaklimits`` import ``powers_of`` by name) and in the benchmark's tasks.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from seqent import cli, core, segments, seqentropy, systems, weaklimits

# Spans kept for the span file; beyond this only the aggregates grow.
MAX_STORED_SPANS = 100_000


class Recorder:
    """In-memory spans plus per-name aggregates."""

    def __init__(self):
        self.task = None
        self.stack: list[list] = []  # [id, name, start, child_time]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def enter(self, name: str) -> None:
        self.stack.append([self.next_id, name, perf_counter(), 0.0])
        self.next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = None
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        if span_id < MAX_STORED_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.task))

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({**meta, "spans_total": self.next_id,
                                 "spans_stored": len(self.spans)}) + "\n")
            for span_id, name, start, end, parent, task in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")


# -- counters taken at span boundaries -----------------------------------------------


class _Times:
    """The family shape estimate_join_cuts reads: a size and the largest |time|."""

    def __init__(self, times):
        self.members = tuple(abs(int(t)) for t in times)

    def __len__(self):
        return len(self.members)


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _after_construct(rec, fn, args, kwargs, result):
    rec.maxima["systems.pieces_max"] = max(rec.maxima["systems.pieces_max"], len(args[0].lengths))


def _after_join(rec, fn, args, kwargs, part):
    a = _args(fn, args, kwargs)
    rec.counts["seqentropy.join.cuts"] += len(part.cuts)
    rec.counts["seqentropy.join.atoms"] += len(set(part.labels))
    rec.counts["seqentropy.join.cut_estimate"] += cli.estimate_join_cuts(
        a["T"], a["xi"], _Times(a["times"]))


def _after_mc(rec, fn, args, kwargs, res):
    rec.counts["seqentropy.mc.samples"] += _args(fn, args, kwargs)["n_samples"]
    rec.counts["seqentropy.mc.support"] += res.atom_count


def _after_scan(rec, fn, args, kwargs, report):
    family = _args(fn, args, kwargs)["family"]
    rec.counts["weaklimits.pairs"] += len(report.values) * len(family) ** 2


def _after_total_length(rec, fn, args, kwargs, result):
    s = args[0]
    n = sum(len(v) for v in s.vertical.values()) + sum(len(v) for v in s.horizontal.values())
    rec.maxima["segments.segments_max"] = max(rec.maxima["segments.segments_max"], n)


def _after_build(rec, fn, args, kwargs, result):
    if rec.inside("cli.main.run"):
        rec.counts["cli.builds_in_runs"] += 1


def _main_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


# (span name, owner, attribute, counter hook); a callable name is evaluated per call
SPANS = [
    ("systems.iet_construct", systems.IntervalExchange, "__post_init__", _after_construct),
    ("systems.compose", systems.IntervalExchange, "compose", None),
    ("systems.power", systems.IntervalExchange, "power", None),
    ("systems.power", systems, "powers_of", None),
    ("systems.inverse", systems.IntervalExchange, "inverse", None),
    ("systems.iet_apply", systems.IntervalExchange, "apply", None),
    ("systems.planar_apply", systems.RectangleExchange, "apply", None),
    ("systems.planar_apply", systems.BakerMap, "apply", None),
    ("seqentropy.join_partition", seqentropy, "join_partition", _after_join),
    ("seqentropy.mc_join_entropy", seqentropy, "mc_join_entropy", _after_mc),
    ("seqentropy.boundary_growth", seqentropy, "boundary_growth", None),
    ("core.label_at", core.IntervalPartition, "label_at", None),
    ("core.label_at", core.RectanglePartition, "label_at", None),
    ("core.partition_construct", core.IntervalPartition, "__post_init__", None),
    ("core.partition_construct", core.RectanglePartition, "__post_init__", None),
    ("core.partition_measures", core, "partition_measures", None),
    ("core.shannon_entropy", core, "shannon_entropy", None),
    ("weaklimits.scan", weaklimits, "mixing_time_scan", _after_scan),
    ("weaklimits.scan", weaklimits, "rigidity_scan", _after_scan),
    ("weaklimits.correlation_matrix", weaklimits, "correlation_matrix", None),
    ("segments.add", segments.SegmentSet, "add_vertical", None),
    ("segments.add", segments.SegmentSet, "add_horizontal", None),
    ("segments.union", segments.SegmentSet, "union_with", None),
    ("segments.total_length", segments.SegmentSet, "total_length", _after_total_length),
    ("segments.copy", segments.SegmentSet, "copy", None),
    ("cli.load_config", cli, "load_config", None),
    ("cli.validate_config", cli, "validate_config", None),
    ("cli.run_experiment", cli, "run_experiment", None),
    ("cli.write_outputs", cli, "write_outputs", None),
    ("cli.build_system", cli, "build_system", _after_build),
    (_main_name, cli, "main", None),
]


def _wrap(rec: Recorder, name, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            after(rec, fn, args, kwargs, result)
        return result

    return wrapper


def _lookup_sites(fn, extra_modules):
    """Every (module, attribute) through which callers reach module function fn."""
    modules = [m for n, m in sys.modules.items() if n == "seqent" or n.startswith("seqent.")]
    for module in modules + list(extra_modules):
        for attr, value in list(vars(module).items()):
            if value is fn:
                yield module, attr


@contextlib.contextmanager
def installed(rec: Recorder, extra_modules=()):
    """Patch every span site for the duration of the block, then restore."""
    saved = []
    try:
        for name, owner, attr, after in SPANS:
            fn = vars(owner)[attr]
            wrapper = _wrap(rec, name, fn, after)
            sites = [(owner, attr)] if isinstance(owner, type) else list(
                _lookup_sites(fn, extra_modules))
            for site, site_attr in sites:
                saved.append((site, site_attr, getattr(site, site_attr)))
                setattr(site, site_attr, wrapper)
        yield rec
    finally:
        for site, site_attr, original in reversed(saved):
            setattr(site, site_attr, original)


# -- per-layer metrics -----------------------------------------------------------------


COUNT, SECONDS, RATIO = "count", "s", "ratio"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metric -> (value, unit); a layer that did not run reads 0."""
    calls, self_s, counts, maxima = rec.calls, rec.self_s, rec.counts, rec.maxima
    out: dict[str, tuple[float, str]] = {}
    for span in ("systems.iet_construct", "systems.compose", "systems.power", "systems.inverse",
                 "systems.iet_apply", "systems.planar_apply", "seqentropy.join_partition",
                 "seqentropy.mc_join_entropy", "core.label_at", "core.shannon_entropy",
                 "weaklimits.scan"):
        out[f"{span}.calls"] = (calls[span], COUNT)
        out[f"{span}.self_s"] = (self_s[span], SECONDS)
    for span in ("seqentropy.boundary_growth", "core.partition_measures",
                 "core.partition_construct", "weaklimits.correlation_matrix",
                 "cli.validate_config", "cli.run_experiment", "cli.write_outputs"):
        out[f"{span}.self_s"] = (self_s[span], SECONDS)
    cuts, atoms = counts["seqentropy.join.cuts"], counts["seqentropy.join.atoms"]
    out.update({
        "systems.pieces_max": (maxima["systems.pieces_max"], COUNT),
        "seqentropy.join.cuts_total": (cuts, COUNT),
        "seqentropy.join.atoms_total": (atoms, COUNT),
        "seqentropy.join.atoms_per_gap": (_ratio(atoms, cuts), RATIO),
        "seqentropy.join.cut_estimate_ratio": (
            _ratio(cuts, counts["seqentropy.join.cut_estimate"]), RATIO),
        "seqentropy.mc.samples": (counts["seqentropy.mc.samples"], COUNT),
        "seqentropy.mc.support_frac": (
            _ratio(counts["seqentropy.mc.support"], counts["seqentropy.mc.samples"]), RATIO),
        "weaklimits.pairs": (counts["weaklimits.pairs"], COUNT),
        "segments.add.calls": (calls["segments.add"], COUNT),
        "segments.self_s": (sum(v for k, v in self_s.items() if k.startswith("segments.")), SECONDS),
        "segments.segments_max": (maxima["segments.segments_max"], COUNT),
        "cli.builds_per_run": (_ratio(counts["cli.builds_in_runs"], calls["cli.main.run"]), RATIO),
    })
    return out
