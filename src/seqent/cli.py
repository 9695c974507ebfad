"""Experiment runner.

Subcommands:

* ``seqent run --config cfg.json [--out-dir DIR] [--format csv|json|both]
  [--seed N]`` -- execute a declarative experiment config.
* ``seqent validate --config cfg.json`` -- full static validation, including
  a cut-point budget estimate, without running anything.
* ``seqent list-presets`` -- catalog of built-in experiment configs
  (run one with ``--config preset:NAME``).

Each experiment is one ``EXPERIMENTS`` entry, and each system, partition and
index-family kind one ``SYSTEMS``, ``PARTITIONS`` or ``FAMILIES`` entry;
validation builds what the runner needs once, and ``run`` passes that on.

Configs are JSON with every measure written as an exact fraction string
("13/21"); floating literals are rejected.  Exit codes: 0 ok, 1 validation
error, 2 budget/aliasing error, 3 internal error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__
from .core import (
    IntervalPartition,
    Rect,
    RectanglePartition,
    as_integer,
    as_real,
)
from .errors import (
    AliasingError,
    BudgetError,
    SeqentError,
    ValidationError,
    MAX_JOIN_CUTS,
)
from .families import (
    IndexFamily,
    explicit_family,
    make_geometric_family,
    make_progression_family,
    resolve_growth,
)
from .seqentropy import (
    McOptions,
    asymmetry_ratio,
    asymmetry_times,
    boundary_growth,
    check_j_values,
    check_join,
    check_ledger_steps,
    check_partition,
    entropy_trace,
    mc_join_entropy,
    partition_library,
    sup_over_partitions,
)
from .systems import (
    BakerMap,
    BernoulliSystem,
    IntervalExchange,
    RectangleExchange,
    discontinuity_length,
    golden_rotation,
)
from .weaklimits import (
    TestFamily,
    TestSet1D,
    TestSet2D,
    check_sets,
    mixing_time_scan,
    rigidity_scan,
    scan_times,
    triple_correlation,
    triple_correlation_limits,
    triple_times,
)


# -- config construction -------------------------------------------------------


class ConfigError(ValidationError):
    pass


def _read(name: str, spec, build, *args):
    """``build(spec, *args)`` for the config object ``name``, where ``build`` is a
    builder or a table of one builder per ``kind``.  The config-shape rules live
    here: ``spec`` is a JSON object, its kind is a key of the table, and a key a
    builder reads is present; each is a ConfigError that names the object."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be a JSON object, not {json.dumps(spec)}")
    if isinstance(build, dict):
        kinds = tuple(build)
        if spec.get("kind") not in kinds:
            raise ConfigError(f"unknown {name} kind {spec.get('kind')!r}; choose from {kinds}")
        build = build[spec["kind"]]
    try:
        return build(spec, *args)
    except KeyError as exc:
        raise ConfigError(f"{name} needs the key {exc.args[0]!r}") from None


SYSTEMS: dict[str, Callable[[dict], object]] = {
    "identity-iet": lambda spec: IntervalExchange.identity(),
    "iet": lambda spec: IntervalExchange(tuple(spec["lengths"]), tuple(spec["permutation"])),
    "rotation": lambda spec: IntervalExchange.rotation(spec["alpha"], spec.get("alias_limit")),
    "golden-rotation": lambda spec: golden_rotation(spec.get("order", 41)).to_iet(),
    "bernoulli": lambda spec: BernoulliSystem(tuple(spec["masses"])),
    "baker": lambda spec: BakerMap(),
    "identity-rect": lambda spec: RectangleExchange.identity(),
    "vertical-swap": lambda spec: RectangleExchange.vertical_swap(),
    "product-rotations":
        lambda spec: RectangleExchange.product_rotations(spec["alpha"], spec["beta"]),
    "rect-exchange": lambda spec: RectangleExchange(
        tuple(Rect(*corners) for corners in spec["sources"]), tuple(spec["translations"])),
}


def _source_atoms(spec: dict, system) -> RectanglePartition:
    """One atom per source rectangle of a rectangle exchange."""
    if not isinstance(system, RectangleExchange):
        raise ValidationError(f"partition kind 'sources' needs a rectangle exchange, "
                              f"not {type(system).__name__}")
    return RectanglePartition(tuple((r, i) for i, r in enumerate(system.sources)))


PARTITIONS: dict[str, Callable[[dict, object], object]] = {
    "sources": _source_atoms,
    "dyadic": lambda spec, system: IntervalPartition.dyadic(spec["depth"]),
    "cuts": lambda spec, system: IntervalPartition.from_cut_list(spec["cuts"], spec.get("labels")),
    "dyadic-rect":
        lambda spec, system: RectanglePartition.dyadic(spec["x_depth"], spec["y_depth"]),
    "quadrants": lambda spec, system: RectanglePartition.quadrants(),
    "vertical-halves": lambda spec, system: RectanglePartition.vertical_halves(),
    "rects": lambda spec, system: RectanglePartition(
        tuple((Rect(*corners), label) for corners, label in spec["atoms"])),
}


def _growth(spec: dict, j: int) -> int:
    L = _read("family.L", spec.get("L", {}), lambda L: L)
    return resolve_growth(L.get("form", "j"), j, L.get("c"))


# the index family of one j
FAMILIES: dict[str, Callable[[dict, int], IndexFamily]] = {
    "progression": lambda spec, j: make_progression_family(j, _growth(spec, j)),
    "geometric": lambda spec, j: make_geometric_family(j, spec["cap"]),
    "explicit": lambda spec, j: explicit_family(spec["members"]),
}


def build_system(spec):
    return _read("system", spec, SYSTEMS)


def build_test_family(spec: dict, system) -> TestFamily:
    depth = spec.get("depth", 6)
    if isinstance(system, BakerMap):
        return TestFamily.dyadic_rectangles(depth)
    return TestFamily.dyadic_intervals(depth)


def build_test_set(spec: dict):
    if "x_level" in spec:
        return TestSet2D(spec["x_level"], spec["x_index"],
                         spec.get("y_level", 0), spec.get("y_index", 0))
    return TestSet1D(spec["level"], spec["index"])


# -- validation -----------------------------------------------------------------


def _require(cfg: dict, field: str):
    if field not in cfg:
        raise ConfigError(f"config field {field!r} is required for {cfg.get('experiment')}")
    return cfg[field]


def estimate_join_cuts(system: IntervalExchange, partition, family: IndexFamily) -> int:
    """Upper bound on the cut points of an interval exchange's exact join: every
    interior cut of T^-p is T^s of one of the n-1 interior cuts of T^-1 with
    s < p, so the cuts of all powers T^-p, p <= M, lie among 0 and those M(n-1)
    points (a rotation's T^-M has one interior cut, the union M); each power
    adds at most one preimage per cut of the partition."""
    return max(family.members) * (len(system) - 1) + 1 + len(family) * len(partition.cuts)


def validate_config(cfg: dict) -> tuple[list[str], dict]:
    """Check a config against its ``EXPERIMENTS`` entry before any work; returns
    notes and the runner's keyword arguments, or raises the first error, a
    SeqentError.  Library rules are checked by the library's guards."""
    notes: list[str] = []
    try:
        name = cfg.get("experiment")
        if name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {name!r}; choose from {tuple(EXPERIMENTS)}")
        experiment = EXPERIMENTS[name]
        stem = cfg.get("name", name)  # the output files' name, inside --out-dir
        if not isinstance(stem, str) or stem in ("", ".", "..") or Path(stem).name != stem:
            raise ConfigError(f"name {stem!r} must be a plain file name")
        system = build_system(_require(cfg, "system"))
        if not isinstance(system, experiment.systems):
            accepted = ", ".join(cls.__name__ for cls in experiment.systems)
            raise ConfigError(f"{name} does not run on {type(system).__name__}; use {accepted}")
        for field in experiment.fields:
            if field != "partition" or not isinstance(system, BernoulliSystem):
                _require(cfg, field)
        built = {"system": system}
        if "partition" in experiment.fields:  # a Bernoulli shift's partition: its coordinate window
            built["partition"] = (cfg.get("window", 1) if isinstance(system, BernoulliSystem)
                                  else _read("partition", cfg["partition"], PARTITIONS, system))
            if "family" not in experiment.fields:  # else check_join checks it for each j
                check_partition(system, built["partition"])
        if "set" in experiment.fields:
            built["test_set"] = _read("set", cfg["set"], build_test_set)
            check_sets(system, [built["test_set"]])
        if "m_cap" in experiment.fields:
            built["test_family"] = _read("test_family", cfg.get("test_family", {}),
                                         build_test_family, system)
        experiment.check(cfg, system)
        if "family" in experiment.fields:
            if isinstance(system, (RectangleExchange, BakerMap)):
                if cfg.get("seed") is None:
                    raise ConfigError("Monte Carlo experiments need an explicit seed")
                built["mc"] = McOptions(cfg.get("n_samples", 10000), cfg["seed"])
            families = built["families"] = {}
            if "partition" in built:
                partition = built["partition"]
            else:  # sup-envelope: the deepest library partition has the most cuts and x bits
                partition = list(partition_library(system, cfg.get("depth", 4)).values())[-1]
            for j in check_j_values(cfg["j_values"] if "j_values" in experiment.fields
                                    else [cfg.get("j", 1)]):
                fam = families[j] = _read("family", cfg["family"], FAMILIES, j)
                check_join(system, partition, fam, built.get("mc"))
                if isinstance(system, IntervalExchange):
                    cuts = estimate_join_cuts(system, partition, fam)
                    if cuts > MAX_JOIN_CUTS:
                        raise BudgetError(
                            f"predicted {cuts} join cut points exceed budget {MAX_JOIN_CUTS}"
                        )
                    notes.append(f"j={j}: predicted cut budget {cuts} (ok)")
        return notes, built
    except SeqentError:
        raise
    except (ValueError, TypeError) as exc:  # a config value of the wrong type
        raise ConfigError(f"bad config value: {exc}") from exc


# -- experiments -----------------------------------------------------------------


def _run_trace(cfg, system, partition, families, mc=None):
    trace = entropy_trace(system, partition, families.__getitem__, cfg["j_values"], mc=mc)
    warnings = [f"geometric family j={j} truncated by cap={cfg['family']['cap']}"
                for j in cfg["j_values"] if families[j].truncated]
    rows = trace.as_dicts()
    for j, h in (("max-proxy", trace.h_max_proxy()), ("min-proxy", trace.h_min_proxy())):
        rows.append({"j": j, "family_size": "", "entropy_bits": "",
                     "h_j": h, "method": "", "ci_halfwidth": "", "error": ""})
    warnings.append("max/min over the computed j range are finite proxies, not limits")
    return rows, warnings


def _run_envelope(cfg, system, families, mc=None):
    traces, envelope = sup_over_partitions(system, cfg.get("depth", 4), families.__getitem__,
                                           cfg["j_values"], mc=mc)
    rows = []
    for name, tr in traces.items():
        for d in tr.as_dicts():
            rows.append({"partition": name, **d})
    for d in envelope.as_dicts():
        rows.append({"partition": "envelope", **d})
    return rows, ["envelope is a lower bound for the sup over all partitions"]


def _run_boundary(cfg, system, partition):
    lengths = boundary_growth(system, partition, cfg["N"])
    D = discontinuity_length(system)
    rows = [
        {
            "n": n,
            "boundary_length": str(v),
            "excess_over_linear": str(v - lengths[0] - n * D),
        }
        for n, v in enumerate(lengths)
    ]
    return rows, []


def _scan_rows(report):
    rows = report.as_dicts()
    rows.append({"m": "min_time", "value": report.min_time, "event": ""})
    return rows, []


def _run_mixing(cfg, system, test_family):
    return _scan_rows(mixing_time_scan(system, cfg.get("j", 0), cfg["r"], cfg["m_cap"], test_family))


def _run_rigidity(cfg, system, test_family):
    return _scan_rows(rigidity_scan(system, cfg["m_cap"], cfg["epsilon"], test_family))


def _run_triple(cfg, system, test_set):
    lim_mix, lim_ind = triple_correlation_limits(test_set.measure)
    rows = []
    for m, n in cfg["pairs"]:
        value = triple_correlation(system, test_set, m, n)
        rows.append({
            "m": m, "n": n, "value": str(value),
            "limit_mixing_formula": str(lim_mix),
            "limit_independence_formula": str(lim_ind),
        })
    return rows, []


def _run_ratio(cfg, system, partition):
    N, m, n = cfg["N"], cfg["m"], cfg["n"]
    rows = [
        {"direction": d, "ratio": asymmetry_ratio(system, partition, N, m, n, direction=d)}
        for d in ("forward", "backward")
    ]
    return rows, []


def _run_mc(cfg, system, partition, families, mc):
    family = families[cfg.get("j", 1)]
    res = mc_join_entropy(system, partition, family, mc.n_samples, mc.seed)
    rows = [{
        "family_size": len(family),
        "entropy_bits": res.entropy_bits,
        "h": res.entropy_bits / len(family),
        "observed_support": res.atom_count,
        "ci_halfwidth": res.ci_halfwidth,
    }]
    return rows, []


@dataclass(frozen=True)
class Experiment:
    """System classes accepted, config fields required besides ``system``,
    ``run(cfg, system, ...) -> (rows, warnings)`` with arguments built from them,
    and ``check(cfg, system)``: the library guards of the run's other inputs, which
    raise before any work for a value the run would reject."""

    systems: tuple[type, ...]
    fields: tuple[str, ...]
    run: Callable[..., tuple[list[dict], list[str]]]
    check: Callable[[dict, object], object] = lambda cfg, system: None


ANY_SYSTEM = (IntervalExchange, BernoulliSystem, RectangleExchange, BakerMap)
EXACT_CORRELATIONS = (IntervalExchange, BakerMap)

EXPERIMENTS: dict[str, Experiment] = {
    "entropy-trace": Experiment(ANY_SYSTEM, ("partition", "family", "j_values"), _run_trace),
    "sup-envelope": Experiment(ANY_SYSTEM, ("family", "j_values"), _run_envelope),
    "boundary-growth": Experiment((RectangleExchange,), ("partition", "N"), _run_boundary,
                                  lambda cfg, T: check_ledger_steps(cfg["N"])),
    "mixing-scan": Experiment(EXACT_CORRELATIONS, ("m_cap", "r"), _run_mixing,
                              lambda cfg, T: (as_real(cfg["r"], "r"),
                                              scan_times(T, as_integer(cfg.get("j", 0), "j") + 1,
                                                         cfg["m_cap"]))),
    "rigidity-scan": Experiment(EXACT_CORRELATIONS, ("m_cap", "epsilon"), _run_rigidity,
                                lambda cfg, T: (as_real(cfg["epsilon"], "epsilon"),
                                                scan_times(T, 1, cfg["m_cap"]))),
    "triple-correlation": Experiment(EXACT_CORRELATIONS, ("set", "pairs"), _run_triple,
                                     lambda cfg, T: [triple_times(T, m, n)
                                                     for m, n in cfg["pairs"]]),
    "asymmetry-ratio": Experiment((IntervalExchange,), ("partition", "N", "m", "n"), _run_ratio,
                                  lambda cfg, T: [asymmetry_times(T, cfg["N"], cfg["m"],
                                                                  cfg["n"], d)
                                                  for d in ("forward", "backward")]),
    "mc-entropy": Experiment((RectangleExchange, BakerMap), ("partition", "family"), _run_mc),
}


def run_experiment(cfg: dict, built: dict) -> tuple[list[dict], list[str]]:
    """Run a config with the arguments validate_config built; returns (rows, warnings)."""
    return EXPERIMENTS[cfg["experiment"]].run(cfg, **built)


# -- presets ----------------------------------------------------------------------


PRESETS: dict[str, dict] = {
    "bernoulli-progression": {
        "description": "fair Bernoulli shift, progression families: every h_j is 1 bit",
        "experiment": "entropy-trace",
        "system": {"kind": "bernoulli", "masses": ["1/2", "1/2"]},
        "family": {"kind": "progression", "L": {"form": "j"}},
        "j_values": [2, 4, 8, 16],
    },
    "golden-rotation-decay": {
        "description": "golden-convergent rotation, halves partition: h over {1..64} decays",
        "experiment": "entropy-trace",
        "system": {"kind": "golden-rotation"},
        "partition": {"kind": "dyadic", "depth": 1},
        "family": {"kind": "progression", "L": {"form": "c", "c": 64}},
        "j_values": [1, 2, 4],
    },
    "geom-2n-family": {
        "description": "powers-of-two index family on the fair Bernoulli shift",
        "experiment": "entropy-trace",
        "system": {"kind": "bernoulli", "masses": ["1/2", "1/2"]},
        "family": {"kind": "geometric", "cap": 12},
        "j_values": [2, 3, 4],
    },
    "rect-boundary-ledger": {
        "description": "boundary-growth ledger for a product-of-rotations rectangle exchange",
        "experiment": "boundary-growth",
        "system": {"kind": "product-rotations", "alpha": "610/987", "beta": "377/610"},
        "partition": {"kind": "sources"},
        "N": 50,
    },
    "golden-rigidity-scan": {
        "description": "rigidity times of the golden-convergent rotation (Fibonacci numbers)",
        "experiment": "rigidity-scan",
        "system": {"kind": "golden-rotation"},
        "m_cap": 2000,
        "epsilon": 0.02,
        "test_family": {"depth": 6},
    },
    "baker-mixing-scan": {
        "description": "baker map decorrelates dyadic sets exactly after depth steps",
        "experiment": "mixing-scan",
        "system": {"kind": "baker"},
        "j": 0,
        "r": 0.05,
        "m_cap": 40,
        "test_family": {"depth": 4},
    },
    "baker-triple-correlation": {
        "description": "three-fold independence of the baker map vs the two limit formulas",
        "experiment": "triple-correlation",
        "system": {"kind": "baker"},
        "set": {"x_level": 1, "x_index": 0},
        "pairs": [[1, 2], [3, 7], [5, 11]],
    },
    "iet-asymmetry-ratio": {
        "description": "forward/backward triple-join entropy ratios for a rotation",
        "experiment": "asymmetry-ratio",
        "system": {"kind": "golden-rotation"},
        "partition": {"kind": "dyadic", "depth": 1},
        "N": 8, "m": 3, "n": 5,
    },
    "baker-mc-entropy": {
        "description": "Monte Carlo join entropy on the baker map vs the exact 1 bit/step",
        "experiment": "mc-entropy",
        "system": {"kind": "baker"},
        "partition": {"kind": "vertical-halves"},
        "family": {"kind": "explicit", "members": [1, 2, 3, 4, 5]},
        "n_samples": 10000,
        "seed": 7,
    },
}


# -- output -----------------------------------------------------------------------


def write_outputs(cfg: dict, rows: list[dict], warnings: list[str],
                  out_dir: Path, fmt: str, wall_time: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg.get("name", cfg["experiment"])
    if fmt in ("csv", "both"):
        path = out_dir / f"{stem}.csv"
        fieldnames: list[str] = []
        for row in rows:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
    if fmt in ("json", "both"):
        envelope = {
            "tool": "seqent",
            "version": __version__,
            "wall_time_s": wall_time,
            "config": cfg,
            "warnings": warnings,
            "rows": rows,
        }
        with open(out_dir / f"{stem}.json", "w") as fh:
            json.dump(envelope, fh, indent=2, default=str)


# -- entry point -------------------------------------------------------------------


def load_config(path: str) -> dict:
    if path.startswith("preset:"):
        name = path.split(":", 1)[1]
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; see list-presets")
        cfg = dict(PRESETS[name])
        cfg.setdefault("name", name)
        cfg.pop("description", None)
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, a binary file
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"a config file holds one JSON object, not a {type(cfg).__name__}")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="seqent", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default="results")
    p_run.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p_run.add_argument("--seed", type=int, default=None, help="overrides the config seed")

    p_val = sub.add_parser("validate", help="statically validate a config")
    p_val.add_argument("--config", required=True)

    sub.add_parser("list-presets", help="list built-in experiment configs")

    args = parser.parse_args(argv)

    try:
        if args.command == "list-presets":
            for name, cfg in PRESETS.items():
                print(f"{name:26s} {cfg['description']}")
            return 0

        cfg = load_config(args.config)
        if args.command == "run" and args.seed is not None:
            cfg["seed"] = args.seed
        notes, built = validate_config(cfg)
        if args.command == "validate":
            for note in notes:
                print(note)
            print("ok")
            return 0

        start = time.time()
        rows, warnings = run_experiment(cfg, built)
        write_outputs(cfg, rows, warnings, Path(args.out_dir), args.format,
                      wall_time=time.time() - start)
        for w in warnings:
            print(f"note: {w}")
        print(f"wrote {len(rows)} rows to {args.out_dir}")
        return 0
    except SeqentError as exc:  # validate reports on stdout, run on stderr
        print(f"ERROR[{type(exc).__name__}]: {exc}",
              file=sys.stdout if args.command == "validate" else sys.stderr)
        return 2 if isinstance(exc, (AliasingError, BudgetError)) else 1
    except Exception as exc:  # internal faults
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
