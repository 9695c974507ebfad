"""Experiment runner.

Subcommands:

* ``seqent run --config cfg.json [--out-dir DIR] [--format csv|json|both]
  [--seed N] [--jobs N]`` -- execute a declarative experiment config.
* ``seqent validate --config cfg.json`` -- full static validation, including
  a cut-point budget estimate, without running anything.
* ``seqent list-presets`` -- catalog of built-in experiment configs
  (run one with ``--config preset:NAME``).

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
from fractions import Fraction
from pathlib import Path

from . import __version__
from .core import (
    IntervalPartition,
    Rect,
    RectanglePartition,
    as_fraction,
    partition_measures,
    shannon_entropy,
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
    boundary_growth,
    entropy_trace,
    mc_join_entropy,
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
    mixing_time_scan,
    rigidity_scan,
    triple_correlation,
    triple_correlation_limits,
    vertical_half,
)

EXPERIMENTS = (
    "entropy-trace",
    "sup-envelope",
    "boundary-growth",
    "mixing-scan",
    "rigidity-scan",
    "triple-correlation",
    "asymmetry-ratio",
    "mc-entropy",
)


# -- config construction -------------------------------------------------------


def build_system(spec: dict):
    kind = spec.get("kind")
    if kind == "identity-iet":
        return IntervalExchange.identity()
    if kind == "iet":
        return IntervalExchange.from_lengths_and_permutation(
            [as_fraction(v) for v in spec["lengths"]], tuple(spec["permutation"])
        )
    if kind == "rotation":
        alias = spec.get("alias_limit")
        return IntervalExchange.rotation(as_fraction(spec["alpha"]), alias_limit=alias)
    if kind == "golden-rotation":
        return golden_rotation(int(spec.get("order", 41))).to_iet()
    if kind == "bernoulli":
        return BernoulliSystem(tuple(as_fraction(v) for v in spec["masses"]))
    if kind == "baker":
        return BakerMap()
    if kind == "identity-rect":
        return RectangleExchange.identity()
    if kind == "vertical-swap":
        return RectangleExchange.vertical_swap()
    if kind == "product-rotations":
        return RectangleExchange.product_rotations(
            as_fraction(spec["alpha"]), as_fraction(spec["beta"])
        )
    if kind == "rect-exchange":
        sources = tuple(
            Rect(*(as_fraction(v) for v in corners)) for corners in spec["sources"]
        )
        translations = tuple(
            (as_fraction(dx), as_fraction(dy)) for dx, dy in spec["translations"]
        )
        return RectangleExchange(sources, translations)
    raise ValidationError(f"unknown system kind {kind!r}")


def build_partition(spec: dict):
    kind = spec.get("kind")
    if kind == "dyadic":
        return IntervalPartition.dyadic(int(spec["depth"]))
    if kind == "cuts":
        return IntervalPartition.from_cut_list(
            [as_fraction(c) for c in spec["cuts"]], spec.get("labels")
        )
    if kind == "dyadic-rect":
        return RectanglePartition.dyadic(int(spec["x_depth"]), int(spec["y_depth"]))
    if kind == "quadrants":
        return RectanglePartition.quadrants()
    if kind == "vertical-halves":
        return RectanglePartition.vertical_halves()
    if kind == "rects":
        atoms = tuple(
            (Rect(*(as_fraction(v) for v in corners)), label)
            for corners, label in spec["atoms"]
        )
        return RectanglePartition(atoms)
    if kind == "sources":
        return None  # resolved against the system by the runner
    raise ValidationError(f"unknown partition kind {kind!r}")


def build_family_maker(spec: dict):
    kind = spec.get("kind")
    if kind == "progression":
        form = spec.get("L", {}).get("form", "j")
        c = spec.get("L", {}).get("c")
        return lambda j: make_progression_family(j, resolve_growth(form, j, c))
    if kind == "geometric":
        cap = int(spec["cap"])
        return lambda j: make_geometric_family(j, cap)
    if kind == "explicit":
        members = spec["members"]
        return lambda j: explicit_family(members)
    raise ValidationError(f"unknown family kind {kind!r}")


def build_test_family(spec: dict, system) -> TestFamily:
    depth = int(spec.get("depth", 6))
    if isinstance(system, (BakerMap, RectangleExchange)):
        return TestFamily.dyadic_rectangles(depth)
    return TestFamily.dyadic_intervals(depth)


def build_test_set(spec: dict):
    if "x_level" in spec:
        return TestSet2D(
            int(spec["x_level"]), int(spec["x_index"]),
            int(spec.get("y_level", 0)), int(spec.get("y_index", 0)),
        )
    return TestSet1D(int(spec["level"]), int(spec["index"]))


# -- runner ----------------------------------------------------------------------


class ConfigError(ValidationError):
    pass


def _require(cfg: dict, field: str):
    if field not in cfg:
        raise ConfigError(f"config field {field!r} is required for {cfg.get('experiment')}")
    return cfg[field]


def estimate_join_cuts(system, partition, family: IndexFamily) -> int:
    """Pessimistic predicted cut-point count for an exact join."""
    if not isinstance(system, IntervalExchange):
        return 0
    n = len(system)
    k = len(partition.cuts) if partition is not None else 1
    M = max(family.members)
    return len(family) * ((M * (n - 1) + 1) + k)


def run_experiment(cfg: dict) -> tuple[list[dict], list[str]]:
    """Execute a validated config; returns (rows, warnings)."""
    experiment = cfg["experiment"]
    warnings: list[str] = []
    system = build_system(_require(cfg, "system"))
    seed = cfg.get("seed")

    if experiment in ("entropy-trace", "sup-envelope"):
        family_maker = build_family_maker(_require(cfg, "family"))
        j_values = [int(j) for j in _require(cfg, "j_values")]
        mc = None
        if isinstance(system, (RectangleExchange, BakerMap)):
            if seed is None:
                raise ConfigError("Monte Carlo experiments need an explicit seed")
            mc = McOptions(int(cfg.get("n_samples", 10000)), int(seed))
        if experiment == "entropy-trace":
            if isinstance(system, BernoulliSystem):
                xi = int(cfg.get("window", 1))
            else:
                xi = build_partition(_require(cfg, "partition"))
            trace = entropy_trace(system, xi, family_maker, j_values, mc=mc)
            for j in j_values:
                try:
                    fam = family_maker(j)
                except SeqentError:
                    continue
                if getattr(fam, "truncated", False):
                    warnings.append(f"geometric family j={fam.j} truncated by cap={fam.cap}")
            rows = trace.as_dicts()
            rows.append({"j": "max-proxy", "family_size": "", "entropy_bits": "",
                         "h_j": trace.h_max_proxy(), "method": "", "ci_halfwidth": "", "error": ""})
            rows.append({"j": "min-proxy", "family_size": "", "entropy_bits": "",
                         "h_j": trace.h_min_proxy(), "method": "", "ci_halfwidth": "", "error": ""})
            warnings.append(
                "max/min over the computed j range are finite proxies, not limits"
            )
            return rows, warnings
        depth = int(cfg.get("depth", 4))
        traces, envelope = sup_over_partitions(system, depth, family_maker, j_values, mc=mc)
        rows = []
        for name, tr in traces.items():
            for d in tr.as_dicts():
                rows.append({"partition": name, **d})
        for d in envelope.as_dicts():
            rows.append({"partition": "envelope", **d})
        warnings.append("envelope is a lower bound for the sup over all partitions")
        return rows, warnings

    if experiment == "boundary-growth":
        part_spec = _require(cfg, "partition")
        if part_spec.get("kind") == "sources":
            xi = RectanglePartition(tuple((r, i) for i, r in enumerate(system.sources)))
        else:
            xi = build_partition(part_spec)
        N = int(_require(cfg, "N"))
        lengths = boundary_growth(system, xi, N)
        D = discontinuity_length(system)
        rows = [
            {
                "n": n,
                "boundary_length": str(v),
                "excess_over_linear": str(v - lengths[0] - n * D),
            }
            for n, v in enumerate(lengths)
        ]
        return rows, warnings

    if experiment in ("mixing-scan", "rigidity-scan"):
        family = build_test_family(cfg.get("test_family", {}), system)
        m_cap = int(_require(cfg, "m_cap"))
        if experiment == "mixing-scan":
            report = mixing_time_scan(system, int(cfg.get("j", 0)),
                                      float(_require(cfg, "r")), m_cap, family)
        else:
            report = rigidity_scan(system, m_cap, float(_require(cfg, "epsilon")), family)
        rows = report.as_dicts()
        rows.append({"m": "min_time", "value": report.min_time, "event": ""})
        return rows, warnings

    if experiment == "triple-correlation":
        A = build_test_set(_require(cfg, "set"))
        pairs = [(int(m), int(n)) for m, n in _require(cfg, "pairs")]
        lim_mix, lim_ind = triple_correlation_limits(A.measure)
        rows = []
        for m, n in pairs:
            value = triple_correlation(system, A, m, n)
            rows.append({
                "m": m, "n": n, "value": str(value),
                "limit_mixing_formula": str(lim_mix),
                "limit_independence_formula": str(lim_ind),
            })
        return rows, warnings

    if experiment == "asymmetry-ratio":
        xi = build_partition(_require(cfg, "partition"))
        N, m, n = int(_require(cfg, "N")), int(_require(cfg, "m")), int(_require(cfg, "n"))
        rows = [
            {"direction": d, "ratio": asymmetry_ratio(system, xi, N, m, n, direction=d)}
            for d in ("forward", "backward")
        ]
        return rows, warnings

    if experiment == "mc-entropy":
        if seed is None:
            raise ConfigError("Monte Carlo experiments need an explicit seed")
        xi = build_partition(_require(cfg, "partition"))
        family = build_family_maker(_require(cfg, "family"))(int(cfg.get("j", 1)))
        res = mc_join_entropy(system, xi, family, int(cfg.get("n_samples", 10000)), int(seed))
        rows = [{
            "family_size": len(family),
            "entropy_bits": res.entropy_bits,
            "h": res.entropy_bits / len(family),
            "observed_support": res.atom_count,
            "ci_halfwidth": res.ci_halfwidth,
        }]
        return rows, warnings

    raise ConfigError(f"unknown experiment {cfg.get('experiment')!r}; choose from {EXPERIMENTS}")


def validate_config(cfg: dict) -> list[tuple[str, type[Exception] | None]]:
    """Static validation; returns (diagnostic, error class or None) pairs."""
    diagnostics: list[tuple[str, type[Exception] | None]] = []
    try:
        if cfg.get("experiment") not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {cfg.get('experiment')!r}")
        system = build_system(cfg.get("system", {}))
        if isinstance(system, RectangleExchange):
            report = system.validate()
            if report:
                diagnostics.append(
                    (f"ERROR[ValidationError]: tiling check failed: {report}", ValidationError))
        if "partition" in cfg and cfg["partition"].get("kind") != "sources":
            build_partition(cfg["partition"])
        if "family" in cfg:
            maker = build_family_maker(cfg["family"])
            for j in cfg.get("j_values", [cfg.get("j", 1)]):
                fam = maker(int(j))
                if isinstance(system, IntervalExchange):
                    system.check_alias(max(fam.members))
                    part = build_partition(cfg["partition"]) if "partition" in cfg else None
                    cuts = estimate_join_cuts(system, part, fam)
                    if cuts > MAX_JOIN_CUTS:
                        raise BudgetError(
                            f"predicted {cuts} join cut points exceed budget {MAX_JOIN_CUTS}"
                        )
                    diagnostics.append((f"j={j}: predicted cut budget {cuts} (ok)", None))
        if "m_cap" in cfg and isinstance(system, IntervalExchange):
            system.check_alias(int(cfg["m_cap"]))
        if cfg.get("experiment") in ("mc-entropy",) and cfg.get("seed") is None:
            raise ConfigError("Monte Carlo experiments need an explicit seed")
    except (SeqentError, KeyError) as exc:
        diagnostics.append((f"ERROR[{type(exc).__name__}]: {exc}", type(exc)))
    return diagnostics


def _exit_code(error: type[Exception]) -> int:
    """2 for budget and aliasing errors, 1 for every other config or library error."""
    return 2 if issubclass(error, (AliasingError, BudgetError)) else 1


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
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="seqent", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default="results")
    p_run.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p_run.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker hint; results are identical at any level")

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
        if args.command == "validate":
            diagnostics = validate_config(cfg)
            for text, _ in diagnostics:
                print(text)
            errors = [error for _, error in diagnostics if error is not None]
            if errors:
                return _exit_code(errors[0])
            print("ok")
            return 0

        if args.seed is not None:
            cfg["seed"] = args.seed
        errors = [(text, error) for text, error in validate_config(cfg) if error is not None]
        if errors:
            for text, _ in errors:
                print(text, file=sys.stderr)
            return _exit_code(errors[0][1])
        start = time.time()
        rows, warnings = run_experiment(cfg)
        write_outputs(cfg, rows, warnings, Path(args.out_dir), args.format,
                      wall_time=time.time() - start)
        for w in warnings:
            print(f"note: {w}")
        print(f"wrote {len(rows)} rows to {args.out_dir}")
        return 0
    except (SeqentError, KeyError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return _exit_code(type(exc))
    except Exception as exc:  # internal faults
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
