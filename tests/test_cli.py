import csv
import dataclasses
import json
import re
from pathlib import Path

import pytest

import seqent.cli
from seqent import (
    BakerMap,
    BudgetError,
    IntervalExchange,
    IntervalPartition,
    Rect,
    RectangleExchange,
    RectanglePartition,
    SeqentError,
    asymmetry_ratio,
    boundary_growth,
    entropy_trace,
    explicit_family,
    golden_rotation,
    make_progression_family,
    mc_join_entropy,
    mixing_time_scan,
    resolve_growth,
    rigidity_scan,
    triple_correlation,
)
from seqent.cli import PRESETS, main, validate_config
from seqent.errors import MAX_MC_SAMPLES
from seqent.seqentropy import join_partition, partition_library
from seqent.weaklimits import TestFamily as Family
from seqent.weaklimits import TestSet2D as Dyadic2D


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


IDENTITY_TRACE = {
    "name": "identity-trace",
    "experiment": "entropy-trace",
    "system": {"kind": "identity-iet"},
    "partition": {"kind": "dyadic", "depth": 1},
    "family": {"kind": "progression", "L": {"form": "j"}},
    "j_values": [2, 4, 8],
}


class TestListPresets:
    def test_required_presets_present(self, capsys):
        assert run_cli("list-presets") == 0
        out = capsys.readouterr().out
        for name in ("bernoulli-progression", "golden-rotation-decay", "geom-2n-family"):
            assert name in out


class TestRun:
    def test_identity_trace_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, IDENTITY_TRACE)
        assert run_cli("run", "--config", cfg, "--out-dir", str(tmp_path), "--format", "csv") == 0
        rows = (tmp_path / "identity-trace.csv").read_text().splitlines()
        header = rows[0].split(",")
        h_col = header.index("h_j")
        j_col = header.index("j")
        data = {r.split(",")[j_col]: float(r.split(",")[h_col]) for r in rows[1:4]}
        # H(halves) = 1 bit, so h_j = 1/|P_j| = 1/j
        assert data == {"2": 0.5, "4": 0.25, "8": 0.125}

    def test_bernoulli_preset_all_ones(self, tmp_path):
        assert run_cli("run", "--config", "preset:bernoulli-progression",
                       "--out-dir", str(tmp_path), "--format", "csv") == 0
        rows = (tmp_path / "bernoulli-progression.csv").read_text().splitlines()
        h_col = rows[0].split(",").index("h_j")
        for r in rows[1:5]:
            assert float(r.split(",")[h_col]) == 1.0

    def test_reproducible_csv_bytes(self, tmp_path):
        cfg = write_config(tmp_path, IDENTITY_TRACE)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", cfg, "--out-dir", str(out_a), "--format", "csv") == 0
        assert run_cli("run", "--config", cfg, "--out-dir", str(out_b), "--format", "csv") == 0
        assert (out_a / "identity-trace.csv").read_bytes() == (out_b / "identity-trace.csv").read_bytes()

    def test_json_envelope(self, tmp_path):
        cfg = write_config(tmp_path, IDENTITY_TRACE)
        assert run_cli("run", "--config", cfg, "--out-dir", str(tmp_path), "--format", "json") == 0
        envelope = json.loads((tmp_path / "identity-trace.json").read_text())
        assert envelope["tool"] == "seqent"
        assert envelope["config"]["experiment"] == "entropy-trace"
        assert "wall_time_s" in envelope and "warnings" in envelope
        assert len(envelope["rows"]) >= 3

    def test_malformed_fraction_exits_nonzero(self, tmp_path, capsys):
        cfg = dict(IDENTITY_TRACE, system={"kind": "rotation", "alpha": "1/0"})
        path = write_config(tmp_path, cfg)
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 1

    def test_float_literal_rejected(self, tmp_path):
        cfg = dict(IDENTITY_TRACE, system={"kind": "rotation", "alpha": 0.5})
        path = write_config(tmp_path, cfg)
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 1

    def test_mc_requires_seed(self, tmp_path):
        cfg = {
            "experiment": "mc-entropy",
            "system": {"kind": "baker"},
            "partition": {"kind": "vertical-halves"},
            "family": {"kind": "explicit", "members": [1, 2]},
            "n_samples": 1000,
        }
        path = write_config(tmp_path, cfg)
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 1
        # --seed on the command line satisfies the requirement
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path), "--seed", "7") == 0

    def test_aliasing_exit_code(self, tmp_path):
        cfg = {
            "experiment": "rigidity-scan",
            "system": {"kind": "golden-rotation"},
            "m_cap": 10**6,
            "epsilon": 0.02,
        }
        path = write_config(tmp_path, cfg)
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 2

    def test_internal_error_exit_code(self, tmp_path, monkeypatch):
        # a family builder returning None is a program fault, not a config error
        monkeypatch.setitem(seqent.cli.FAMILIES, "progression", lambda spec, j: None)
        path = write_config(tmp_path, {
            "experiment": "entropy-trace",
            "system": {"kind": "bernoulli", "masses": ["1/2", "1/2"]},
            "family": {"kind": "progression"},
            "j_values": [2],
        })
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 3

    def test_key_error_at_run_time_is_internal(self, tmp_path, capsys, monkeypatch):
        # a KeyError outside config reading is a program fault, not a config mistake
        trace = seqent.cli.EXPERIMENTS["entropy-trace"]
        monkeypatch.setitem(seqent.cli.EXPERIMENTS, "entropy-trace",
                            dataclasses.replace(trace, run=lambda cfg, **built: {}["rows"]))
        path = write_config(tmp_path, IDENTITY_TRACE)
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 3
        assert "internal error: KeyError" in capsys.readouterr().err

    def test_unknown_config_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "missing.json"),
                       "--out-dir", str(tmp_path)) == 1

    def test_malformed_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"experiment": "entropy-trace",\n  "system": }')
        assert run_cli("run", "--config", str(path), "--out-dir", str(tmp_path)) == 1
        assert "config parse error at line 2" in capsys.readouterr().err

    def test_unknown_preset(self, tmp_path):
        assert run_cli("run", "--config", "preset:does-not-exist",
                       "--out-dir", str(tmp_path)) == 1


class TestValidate:
    def test_valid_config_prints_budget(self, tmp_path, capsys):
        cfg = write_config(tmp_path, IDENTITY_TRACE)
        assert run_cli("validate", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "budget" in out

    def test_tiling_violation_diagnosed(self, tmp_path, capsys):
        cfg = {
            "experiment": "boundary-growth",
            "system": {
                "kind": "rect-exchange",
                "sources": [["0", "3/4", "0", "1"], ["1/2", "1", "0", "1"]],
                "translations": [["0", "0"], ["0", "0"]],
            },
            "partition": {"kind": "sources"},
            "N": 5,
        }
        path = write_config(tmp_path, cfg)
        assert run_cli("validate", "--config", path) == 1
        assert "overlap" in capsys.readouterr().out

    def test_aliasing_diagnosed(self, tmp_path, capsys):
        cfg = {
            "experiment": "mixing-scan",
            "system": {"kind": "golden-rotation"},
            "j": 0,
            "r": 0.05,
            "m_cap": 10**6,
        }
        path = write_config(tmp_path, cfg)
        assert run_cli("validate", "--config", path) == 2
        assert "aliasing" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("cfg", [
        {"experiment": "asymmetry-ratio", "system": {"kind": "golden-rotation"},
         "partition": {"kind": "dyadic", "depth": 1}, "N": 8, "m": 100000, "n": 5},
        {"experiment": "triple-correlation", "system": {"kind": "golden-rotation"},
         "set": {"level": 1, "index": 0}, "pairs": [[1, 2], [3, 100000]]},
    ], ids=["asymmetry-ratio", "triple-correlation"])
    def test_power_budget_of_every_time_predicted(self, tmp_path, capsys, cfg):
        path = write_config(tmp_path, cfg)
        assert run_cli("validate", "--config", path) == 2
        assert "aliasing" in capsys.readouterr().out.lower()
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("cfg", [
        {"experiment": "mixing-scan", "system": {"kind": "golden-rotation"},
         "r": 0.05, "m_cap": 10**12},
        {"experiment": "rigidity-scan", "system": {"kind": "golden-rotation"},
         "epsilon": 0.02, "m_cap": 10**12},
        {"experiment": "asymmetry-ratio", "system": {"kind": "golden-rotation"},
         "partition": {"kind": "dyadic", "depth": 1}, "N": 10**9, "m": 3, "n": 5},
    ], ids=["mixing-scan", "rigidity-scan", "asymmetry-ratio"])
    def test_power_budget_checked_before_times_are_listed(self, tmp_path, capsys, cfg):
        # 10**12 scanned times or 10**9 base times are rejected by their extremes,
        # never walked or listed
        path = write_config(tmp_path, cfg)
        assert run_cli("validate", "--config", path) == 2
        assert "ERROR[BudgetError]" in capsys.readouterr().out
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 2
        assert "ERROR[BudgetError]" in capsys.readouterr().err

    def test_envelope_cut_budget_covers_deepest_library_partition(self):
        cfg = {
            "experiment": "sup-envelope",
            "system": {"kind": "iet", "lengths": ["1/5", "2/7", "3/11", "93/385"],
                       "permutation": [3, 2, 1, 0]},
            "family": {"kind": "progression", "L": {"form": "j"}},
            "j_values": [4],
            "depth": 6,
        }
        notes, built = validate_config(cfg)
        predicted = int(re.search(r"predicted cut budget (\d+)", notes[0]).group(1))
        deepest = join_partition(built["system"], IntervalPartition.dyadic(6),
                                 built["families"][4].members)
        assert predicted >= len(deepest.cuts) == 301

    def test_baker_sample_bits_predicted(self, tmp_path, capsys):
        # j=8 and j=16 reach times 64 and 256: with the halves' one x bit, their
        # labels would read past the 64 bits of a sample
        path = write_config(tmp_path, {
            "experiment": "entropy-trace", "system": {"kind": "baker"},
            "partition": {"kind": "vertical-halves"},
            "family": {"kind": "progression", "L": {"form": "j"}},
            "j_values": [4, 8, 16], "n_samples": 2000, "seed": 1,
        })
        assert run_cli("validate", "--config", path) == 2
        assert "ERROR[BudgetError]" in capsys.readouterr().out
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 2
        assert "ERROR[BudgetError]" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_join_cut_estimate_is_a_union_bound(self):
        # 1..4096 on golden-rotation halves: 8,193 cuts, far inside MAX_JOIN_CUTS
        notes, built = validate_config({
            "experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
            "partition": {"kind": "dyadic", "depth": 1},
            "family": {"kind": "progression", "L": {"form": "c", "c": 4096}}, "j_values": [1],
        })
        assert built is not None
        assert notes == ["j=1: predicted cut budget 12289 (ok)"]

    def test_join_cut_budget_checked_before_joining(self, tmp_path, capsys):
        # 10^6 powers of a 12-interval exchange: up to 11 * 10^6 + 1 cuts
        path = write_config(tmp_path, {
            "experiment": "entropy-trace",
            "system": {"kind": "iet", "lengths": ["1/12"] * 12,
                       "permutation": list(range(11, -1, -1))},
            "partition": {"kind": "dyadic", "depth": 1},
            "family": {"kind": "explicit", "members": [1000000]}, "j_values": [1],
        })
        for argv in (("validate", "--config", path),
                     ("run", "--config", path, "--out-dir", str(tmp_path))):
            assert run_cli(*argv) == 2
            captured = capsys.readouterr()
            assert "ERROR[BudgetError]: predicted 11000003 join cut points" in (
                captured.out + captured.err)
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("system,depth", [("golden-rotation", 13), ("golden-rotation", 12),
                                              ("baker", 12)])
    def test_test_family_size_budgeted(self, tmp_path, capsys, system, depth):
        path = write_config(tmp_path, {
            "experiment": "rigidity-scan", "system": {"kind": system}, "m_cap": 4,
            "epsilon": 0.02, "test_family": {"depth": depth},
        })
        assert run_cli("validate", "--config", path) == 2
        assert "ERROR[BudgetError]" in capsys.readouterr().out
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 2
        assert "ERROR[BudgetError]" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_deepest_test_family_validates(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "experiment": "rigidity-scan", "system": {"kind": "golden-rotation"}, "m_cap": 4,
            "epsilon": 0.02, "test_family": {"depth": 11},
        })
        assert run_cli("validate", "--config", path) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "ok"

    @pytest.mark.parametrize("config, message", [
        ("missing.json", "config file not found"),
        ("bad.json", "config parse error at line 2"),
        ("preset:does-not-exist", "unknown preset 'does-not-exist'"),
        ("list.json", "one JSON object, not a list"),
        ("binary.json", "cannot read config file"),
        (".", "cannot read config file"),
    ])
    def test_config_file_errors_print_on_stdout(self, tmp_path, capsys, config, message):
        (tmp_path / "bad.json").write_text('{"experiment": "entropy-trace",\n  "system": }')
        (tmp_path / "list.json").write_text('[{"experiment": "entropy-trace"}]')
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
        if not config.startswith("preset:"):
            config = str(tmp_path / config)
        assert run_cli("validate", "--config", config) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("ERROR[ConfigError]: ") and message in captured.out
        assert captured.err == ""
        if not config.startswith("preset:"):  # run reports the same class on stderr
            assert run_cli("run", "--config", config, "--out-dir", str(tmp_path)) == 1
            assert "ERROR[ConfigError]: " in capsys.readouterr().err

    def test_exit_code_follows_error_class_not_message(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "Budget-scan"})
        assert run_cli("validate", "--config", path) == 1
        assert "ConfigError" in capsys.readouterr().out
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path)) == 1


EXPLICIT_FAMILY = {"kind": "explicit", "members": [1, 2]}

# experiments given a system class, partition or test set they cannot run on,
# a value of the wrong type, or a value the run would reject
MISMATCHED_CONFIGS = {
    "boundary-growth-on-baker": {
        "experiment": "boundary-growth", "system": {"kind": "baker"},
        "partition": {"kind": "quadrants"}, "N": 5,
    },
    "asymmetry-ratio-on-bernoulli": {
        "experiment": "asymmetry-ratio", "system": {"kind": "bernoulli", "masses": ["1/2", "1/2"]},
        "partition": {"kind": "dyadic", "depth": 1}, "N": 8, "m": 3, "n": 5,
    },
    "entropy-trace-on-baker-without-seed": {
        "experiment": "entropy-trace", "system": {"kind": "baker"},
        "partition": {"kind": "vertical-halves"}, "family": EXPLICIT_FAMILY, "j_values": [1],
    },
    "triple-correlation-2d-set-on-rotation": {
        "experiment": "triple-correlation", "system": {"kind": "golden-rotation"},
        "set": {"x_level": 1, "x_index": 0}, "pairs": [[1, 2]],
    },
    "entropy-trace-quadrants-on-rotation": {
        "experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
        "partition": {"kind": "quadrants"}, "family": EXPLICIT_FAMILY, "j_values": [1],
    },
    "mc-entropy-on-rotation": {
        "experiment": "mc-entropy", "system": {"kind": "golden-rotation"},
        "partition": {"kind": "vertical-halves"}, "family": EXPLICIT_FAMILY, "seed": 1,
    },
    "sup-envelope-with-depth-0": {
        "experiment": "sup-envelope", "system": {"kind": "golden-rotation"},
        "family": EXPLICIT_FAMILY, "j_values": [1], "depth": 0,
    },
    "boundary-growth-with-non-numeric-N": {
        "experiment": "boundary-growth", "system": {"kind": "vertical-swap"},
        "partition": {"kind": "quadrants"}, "N": "ten",
    },
    "mixing-scan-with-non-numeric-r": {
        "experiment": "mixing-scan", "system": {"kind": "golden-rotation"},
        "m_cap": 3, "r": "abc",
    },
    "mixing-scan-with-m_cap-not-past-j": {
        "experiment": "mixing-scan", "system": {"kind": "golden-rotation"},
        "m_cap": 3, "j": 5, "r": 0.05,
    },
    # the scanned times m = j + 1 .. m_cap start at 1 or later
    "mixing-scan-with-negative-j": {
        "experiment": "mixing-scan", "system": {"kind": "golden-rotation"},
        "m_cap": 2, "j": -3, "r": 0.05, "test_family": {"depth": 3},
    },
    "rigidity-scan-with-m_cap-0": {
        "experiment": "rigidity-scan", "system": {"kind": "golden-rotation"},
        "m_cap": 0, "epsilon": 0.02,
    },
    # integer fields: a float or a bool is rejected, not truncated
    "rigidity-scan-with-float-m_cap": {
        "experiment": "rigidity-scan", "system": {"kind": "golden-rotation"},
        "m_cap": 20.9, "epsilon": 0.02,
    },
    "rigidity-scan-with-float-test-family-depth": {
        "experiment": "rigidity-scan", "system": {"kind": "golden-rotation"},
        "m_cap": 20, "epsilon": 0.02, "test_family": {"depth": 3.7},
    },
    "entropy-trace-with-float-members": {
        "experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
        "partition": {"kind": "dyadic", "depth": 1},
        "family": {"kind": "explicit", "members": [1, 2.5, 3.9]}, "j_values": [1],
    },
    "entropy-trace-with-float-j_values": {
        "experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
        "partition": {"kind": "dyadic", "depth": 1},
        "family": {"kind": "progression", "L": {"form": "j"}}, "j_values": [1.5, 2],
    },
    "boundary-growth-with-boolean-N": {
        "experiment": "boundary-growth", "system": {"kind": "vertical-swap"},
        "partition": {"kind": "quadrants"}, "N": True,
    },
    "mc-entropy-with-float-seed": {
        "experiment": "mc-entropy", "system": {"kind": "baker"},
        "partition": {"kind": "vertical-halves"}, "family": EXPLICIT_FAMILY,
        "n_samples": 1000, "seed": 1.5,
    },
    "rigidity-scan-with-float-alias_limit": {
        "experiment": "rigidity-scan",
        "system": {"kind": "rotation", "alpha": "13/21", "alias_limit": 1.5},
        "m_cap": 3, "epsilon": 0.02,
    },
    "mixing-scan-with-boolean-j": {
        "experiment": "mixing-scan", "system": {"kind": "golden-rotation"},
        "m_cap": 3, "j": True, "r": 0.05,
    },
    "entropy-trace-with-boolean-c": {
        "experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
        "partition": {"kind": "dyadic", "depth": 1},
        "family": {"kind": "progression", "L": {"form": "cj", "c": True}}, "j_values": [2],
    },
    "mc-entropy-with-float-x_depth": {
        "experiment": "mc-entropy", "system": {"kind": "identity-rect"},
        "partition": {"kind": "dyadic-rect", "x_depth": 1.0, "y_depth": 1},
        "family": EXPLICIT_FAMILY, "seed": 1,
    },
    # a threshold is a finite JSON number
    "mixing-scan-with-NaN-r": {
        "experiment": "mixing-scan", "system": {"kind": "golden-rotation"},
        "m_cap": 3, "r": float("nan"),
    },
    # a JSON list as a partition label: atoms are keyed by label
    "entropy-trace-with-list-labels": {
        "experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
        "partition": {"kind": "cuts", "cuts": ["0", "1/2"], "labels": [[0], [1]]},
        "family": EXPLICIT_FAMILY, "j_values": [1],
    },
    "mc-entropy-with-list-labels": {
        "experiment": "mc-entropy", "system": {"kind": "baker"},
        "partition": {"kind": "rects", "atoms": [[["0", "1/2", "0", "1"], [0]],
                                                 [["1/2", "1", "0", "1"], [1]]]},
        "family": EXPLICIT_FAMILY, "seed": 1,
    },
    # the output files must stay inside --out-dir
    "name-with-a-path-separator": {
        "name": "sub/dir/x", "experiment": "boundary-growth", "system": {"kind": "vertical-swap"},
        "partition": {"kind": "quadrants"}, "N": 3,
    },
    # values the library rejects at run time
    "triple-correlation-with-equal-times": {
        "experiment": "triple-correlation", "system": {"kind": "baker"},
        "set": {"x_level": 1, "x_index": 0}, "pairs": [[2, 2]],
    },
    "mc-entropy-with-10-samples": {
        "experiment": "mc-entropy", "system": {"kind": "baker"},
        "partition": {"kind": "vertical-halves"}, "family": EXPLICIT_FAMILY,
        "n_samples": 10, "seed": 1,
    },
    "asymmetry-ratio-with-N-0": {
        "experiment": "asymmetry-ratio", "system": {"kind": "golden-rotation"},
        "partition": {"kind": "dyadic", "depth": 1}, "N": 0, "m": 3, "n": 5,
    },
    "boundary-growth-with-negative-N": {
        "experiment": "boundary-growth", "system": {"kind": "vertical-swap"},
        "partition": {"kind": "quadrants"}, "N": -1,
    },
    "entropy-trace-with-no-j_values": {
        "experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
        "partition": {"kind": "dyadic", "depth": 1},
        "family": {"kind": "progression", "L": {"form": "j"}}, "j_values": [],
    },
    # config objects of the wrong shape: not a JSON object, or missing a key
    "system-not-an-object": {
        "experiment": "rigidity-scan", "system": "golden-rotation", "m_cap": 3, "epsilon": 0.02,
    },
    "partition-not-an-object": {
        "experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
        "partition": ["dyadic"], "family": EXPLICIT_FAMILY, "j_values": [1],
    },
    "family-L-not-an-object": {
        "experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
        "partition": {"kind": "dyadic", "depth": 1},
        "family": {"kind": "progression", "L": "j"}, "j_values": [1],
    },
    "test-family-not-an-object": {
        "experiment": "rigidity-scan", "system": {"kind": "golden-rotation"},
        "m_cap": 3, "epsilon": 0.02, "test_family": [6],
    },
    "set-not-an-object": {
        "experiment": "triple-correlation", "system": {"kind": "baker"}, "set": 3,
        "pairs": [[1, 2]],
    },
    "iet-without-lengths": {
        "experiment": "entropy-trace", "system": {"kind": "iet", "permutation": [1, 0]},
        "partition": {"kind": "dyadic", "depth": 1}, "family": EXPLICIT_FAMILY, "j_values": [1],
    },
    "unknown-partition-kind": {
        "experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
        "partition": {"kind": "thirds"}, "family": EXPLICIT_FAMILY, "j_values": [1],
    },
}


class TestConfigErrors:
    @pytest.mark.parametrize("name", sorted(MISMATCHED_CONFIGS))
    def test_typed_error_from_validate_and_run(self, tmp_path, capsys, name):
        path = write_config(tmp_path, MISMATCHED_CONFIGS[name])
        for argv in (("validate", "--config", path),
                     ("run", "--config", path, "--out-dir", str(tmp_path))):
            assert run_cli(*argv) == 1
            captured = capsys.readouterr()
            errors = re.findall(r"ERROR\[(\w+)\]", captured.out + captured.err)
            assert errors, captured
            assert issubclass(getattr(seqent.cli, errors[0]), SeqentError)
            assert "internal error" not in captured.err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("name, message", [
        ("system-not-an-object", 'ERROR[ConfigError]: system must be a JSON object, not '
                                 '"golden-rotation"'),
        ("family-L-not-an-object", 'ERROR[ConfigError]: family.L must be a JSON object'),
        ("iet-without-lengths", "ERROR[ConfigError]: system needs the key 'lengths'"),
        ("unknown-partition-kind", "ERROR[ConfigError]: unknown partition kind 'thirds'; "
                                   "choose from ('sources', 'dyadic', "),
    ])
    def test_shape_error_names_the_object(self, tmp_path, capsys, name, message):
        path = write_config(tmp_path, MISMATCHED_CONFIGS[name])
        assert run_cli("validate", "--config", path) == 1
        assert capsys.readouterr().out.startswith(message)

    def test_ledger_steps_budgeted_by_validate_and_run(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "experiment": "boundary-growth", "system": {"kind": "vertical-swap"},
            "partition": {"kind": "quadrants"}, "N": 20000,
        })
        for argv in (("validate", "--config", path),
                     ("run", "--config", path, "--out-dir", str(tmp_path))):
            assert run_cli(*argv) == 2
            captured = capsys.readouterr()
            assert "ERROR[BudgetError]" in captured.out + captured.err
        assert not list(tmp_path.glob("*.csv"))


GOLDEN = golden_rotation().to_iet()
SWAP, QUADRANTS = RectangleExchange.vertical_swap(), RectanglePartition.quadrants()

# the library call made by each config of a value of the wrong type or a value
# the library rejects at run time
LIBRARY_CALLS = {
    "boundary-growth-with-non-numeric-N": lambda: boundary_growth(SWAP, QUADRANTS, "ten"),
    "boundary-growth-with-boolean-N": lambda: boundary_growth(SWAP, QUADRANTS, True),
    "mixing-scan-with-non-numeric-r":
        lambda: mixing_time_scan(GOLDEN, 0, "abc", 3, Family.dyadic_intervals(6)),
    "mixing-scan-with-NaN-r":
        lambda: mixing_time_scan(GOLDEN, 0, float("nan"), 3, Family.dyadic_intervals(6)),
    "rigidity-scan-with-float-m_cap":
        lambda: rigidity_scan(GOLDEN, 20.9, 0.02, Family.dyadic_intervals(6)),
    "rigidity-scan-with-float-test-family-depth": lambda: Family.dyadic_intervals(3.7),
    "rigidity-scan-with-float-alias_limit":
        lambda: IntervalExchange.rotation("13/21", alias_limit=1.5),
    "entropy-trace-with-float-members": lambda: explicit_family([1, 2.5, 3.9]),
    "entropy-trace-with-float-j_values":
        lambda: entropy_trace(GOLDEN, IntervalPartition.dyadic(1),
                              lambda j: make_progression_family(j, j), [1.5, 2]),
    "mc-entropy-with-float-seed":
        lambda: mc_join_entropy(BakerMap(), RectanglePartition.vertical_halves(),
                                explicit_family([1, 2]), 1000, 1.5),
    "mc-entropy-with-float-x_depth": lambda: RectanglePartition.dyadic(1.0, 1),
    "mixing-scan-with-boolean-j":
        lambda: mixing_time_scan(GOLDEN, True, 0.05, 3, Family.dyadic_intervals(6)),
    "mixing-scan-with-negative-j":
        lambda: mixing_time_scan(GOLDEN, -3, 0.05, 2, Family.dyadic_intervals(3)),
    "entropy-trace-with-boolean-c": lambda: resolve_growth("cj", 2, True),
    "triple-correlation-with-equal-times":
        lambda: triple_correlation(BakerMap(), Dyadic2D(1, 0, 0, 0), 2, 2),
    "mc-entropy-with-10-samples":
        lambda: mc_join_entropy(BakerMap(), RectanglePartition.vertical_halves(),
                                explicit_family([1, 2]), 10, 1),
    "asymmetry-ratio-with-N-0":
        lambda: asymmetry_ratio(golden_rotation().to_iet(), IntervalPartition.dyadic(1), 0, 3, 5),
    "boundary-growth-with-negative-N":
        lambda: boundary_growth(RectangleExchange.vertical_swap(), RectanglePartition.quadrants(),
                                -1),
    "entropy-trace-with-list-labels":
        lambda: IntervalPartition.from_cut_list(["0", "1/2"], [[0], [1]]),
    "mc-entropy-with-list-labels":
        lambda: RectanglePartition(((Rect(0, "1/2", 0, 1), [0]), (Rect("1/2", 1, 0, 1), [1]))),
    "entropy-trace-with-no-j_values":
        lambda: entropy_trace(golden_rotation().to_iet(), IntervalPartition.dyadic(1),
                              lambda j: make_progression_family(j, j), []),
}


# requests past a budget, with the library call each makes: the library raises
# BudgetError before listing a time or drawing a sample
BUDGET_CASES = {
    # listing the 10**9 times ran out of memory after validate printed ok
    "baker-mixing-scan-to-1e9": (
        {"experiment": "mixing-scan", "system": {"kind": "baker"}, "r": 0.05, "m_cap": 10**9,
         "test_family": {"depth": 2}},
        lambda: mixing_time_scan(BakerMap(), 0, 0.05, 10**9, Family.dyadic_rectangles(2))),
    "baker-triple-correlation-at-1e9": (
        {"experiment": "triple-correlation", "system": {"kind": "baker"},
         "set": {"x_level": 1, "x_index": 0}, "pairs": [[1, 10**9]]},
        lambda: triple_correlation(BakerMap(), Dyadic2D(1, 0, 0, 0), 1, 10**9)),
    "mc-entropy-past-MAX_MC_SAMPLES": (
        {"experiment": "mc-entropy", "system": {"kind": "baker"},
         "partition": {"kind": "vertical-halves"}, "family": EXPLICIT_FAMILY,
         "n_samples": MAX_MC_SAMPLES + 1, "seed": 1},
        lambda: mc_join_entropy(BakerMap(), RectanglePartition.vertical_halves(),
                                explicit_family([1, 2]), MAX_MC_SAMPLES + 1, 1)),
    # the 2^40 intervals or rectangles were built before any budget was checked
    "dyadic-partition-of-depth-40": (
        {"experiment": "entropy-trace", "system": {"kind": "golden-rotation"},
         "partition": {"kind": "dyadic", "depth": 40}, "family": EXPLICIT_FAMILY, "j_values": [1]},
        lambda: IntervalPartition.dyadic(40)),
    "dyadic-rect-partition-of-depths-20-20": (
        {"experiment": "mc-entropy", "system": {"kind": "baker"},
         "partition": {"kind": "dyadic-rect", "x_depth": 20, "y_depth": 20},
         "family": EXPLICIT_FAMILY, "seed": 1},
        lambda: RectanglePartition.dyadic(20, 20)),
    "sup-envelope-library-of-depth-40": (
        {"experiment": "sup-envelope", "system": {"kind": "golden-rotation"},
         "family": EXPLICIT_FAMILY, "j_values": [1], "depth": 40},
        lambda: partition_library(golden_rotation().to_iet(), 40)),
    "baker-sup-envelope-library-of-depth-40": (
        {"experiment": "sup-envelope", "system": {"kind": "baker"},
         "family": EXPLICIT_FAMILY, "j_values": [1], "depth": 40, "seed": 1},
        lambda: partition_library(BakerMap(), 40)),
}


class TestBudgets:
    @pytest.mark.parametrize("name", sorted(BUDGET_CASES))
    def test_budget_error_from_library_validate_and_run(self, tmp_path, capsys, name):
        cfg, call = BUDGET_CASES[name]
        with pytest.raises(BudgetError):
            call()
        path = write_config(tmp_path, cfg)
        for argv in (("validate", "--config", path),
                     ("run", "--config", path, "--out-dir", str(tmp_path))):
            assert run_cli(*argv) == 2
            captured = capsys.readouterr()
            assert "ERROR[BudgetError]" in captured.out + captured.err
        assert not list(tmp_path.glob("*.csv"))


class TestOneHomePerRule:
    @pytest.mark.parametrize("name", sorted(LIBRARY_CALLS))
    def test_library_raises_the_class_validate_reports(self, name):
        with pytest.raises(SeqentError) as error:
            validate_config(MISMATCHED_CONFIGS[name])
        reported = type(error.value)
        with pytest.raises(reported) as info:
            LIBRARY_CALLS[name]()
        assert type(info.value) is reported

    def test_bernoulli_window_below_one(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "experiment": "entropy-trace", "system": {"kind": "bernoulli", "masses": ["1/2", "1/2"]},
            "window": 0, "family": {"kind": "progression", "L": {"form": "j"}}, "j_values": [2],
        })
        errors = []
        for argv in (("validate", "--config", path),
                     ("run", "--config", path, "--out-dir", str(tmp_path))):
            assert run_cli(*argv) == 1
            captured = capsys.readouterr()
            errors += re.findall(r"ERROR\[(\w+)\]", captured.out + captured.err)
        assert errors == ["ValidationError", "ValidationError"]
        assert not list(tmp_path.glob("*.csv"))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSupEnvelope:
    @pytest.mark.parametrize("cfg", [
        {"system": {"kind": "golden-rotation"}, "depth": 3},
        {"system": {"kind": "product-rotations", "alpha": "610/987", "beta": "377/610"},
         "depth": 4, "n_samples": 2000, "seed": 5},
    ], ids=["golden-rotation", "product-rotations"])
    def test_envelope_rows_are_the_max_over_partitions(self, tmp_path, capsys, cfg):
        cfg = {"name": "envelope", "experiment": "sup-envelope",
               "family": {"kind": "progression", "L": {"form": "j"}}, "j_values": [2, 4], **cfg}
        path = write_config(tmp_path, cfg)
        assert run_cli("run", "--config", path, "--out-dir", str(tmp_path), "--format", "csv") == 0
        rows = read_rows(tmp_path / "envelope.csv")
        envelope = [r for r in rows if r["partition"] == "envelope"]
        assert [r["j"] for r in envelope] == ["2", "4"]
        for row in envelope:
            per_partition = [float(r["h_j"]) for r in rows
                             if r["partition"] != "envelope" and r["j"] == row["j"]]
            assert len(per_partition) == (3 if cfg["depth"] == 3 else 2)
            assert float(row["h_j"]) == max(per_partition)


RECT_HALVES = [["0", "1/2", "0", "1"], ["1/2", "1", "0", "1"]]
MC = {"n_samples": 1000, "seed": 1}

# one entropy-trace config per system kind, which together use every partition kind
SYSTEM_KINDS = {
    "identity-iet": ({"kind": "identity-iet"}, {"partition": {"kind": "dyadic", "depth": 2}}),
    "iet": ({"kind": "iet", "lengths": ["1/3", "1/6", "1/2"], "permutation": [2, 0, 1]},
            {"partition": {"kind": "cuts", "cuts": ["0", "1/3"]}}),
    "rotation": ({"kind": "rotation", "alpha": "5/13"},
                 {"partition": {"kind": "cuts", "cuts": ["0", "1/4", "1/2"], "labels": [0, 1, 0]}}),
    "golden-rotation": ({"kind": "golden-rotation", "order": 30},
                        {"partition": {"kind": "dyadic", "depth": 1}}),
    "bernoulli": ({"kind": "bernoulli", "masses": ["1/3", "2/3"]}, {"window": 2}),
    "baker": ({"kind": "baker"}, {"partition": {"kind": "vertical-halves"}, **MC}),
    "identity-rect": ({"kind": "identity-rect"},
                      {"partition": {"kind": "dyadic-rect", "x_depth": 1, "y_depth": 2}, **MC}),
    "vertical-swap": ({"kind": "vertical-swap"}, {"partition": {"kind": "quadrants"}, **MC}),
    "product-rotations": ({"kind": "product-rotations", "alpha": "2/5", "beta": "1/3"},
                          {"partition": {"kind": "sources"}, **MC}),
    "rect-exchange": ({"kind": "rect-exchange", "sources": RECT_HALVES,
                       "translations": [["1/2", "0"], ["-1/2", "0"]]},
                      {"partition": {"kind": "rects",
                                     "atoms": [[["0", "1", "0", "1/2"], "low"],
                                               [["0", "1", "1/2", "1"], "high"]]}, **MC}),
}


class TestEveryKindValidates:
    def test_every_kind_is_covered(self):
        systems = {spec["kind"] for spec, _ in SYSTEM_KINDS.values()}
        partitions = {extra["partition"]["kind"] for _, extra in SYSTEM_KINDS.values()
                      if "partition" in extra}
        assert systems == set(SYSTEM_KINDS) == set(seqent.cli.SYSTEMS)
        assert partitions == set(seqent.cli.PARTITIONS)

    @pytest.mark.parametrize("kind", sorted(SYSTEM_KINDS))
    def test_validates(self, tmp_path, capsys, kind):
        system, extra = SYSTEM_KINDS[kind]
        path = write_config(tmp_path, {
            "experiment": "entropy-trace", "system": system,
            "family": {"kind": "progression", "L": {"form": "j"}}, "j_values": [2, 3], **extra,
        })
        assert run_cli("validate", "--config", path) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "ok"


class TestPresetsRunnable:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_runs(self, tmp_path, capsys, name):
        assert run_cli("run", "--config", f"preset:{name}",
                       "--out-dir", str(tmp_path), "--format", "both") == 0
        assert (tmp_path / f"{name}.csv").exists()
        assert (tmp_path / f"{name}.json").exists()
        capsys.readouterr()
        assert run_cli("validate", "--config", f"preset:{name}") == 0
        assert capsys.readouterr().out.splitlines()[-1] == "ok"
