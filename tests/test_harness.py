import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dopsim
from dopsim import harness
from dopsim.cli import build_parser, cli_main
from dopsim.harness import (
    ConfigError,
    child_iterator,
    load_config,
    load_config_file,
    predicted_scan_line,
    run_calibrate,
    run_fig2_scan,
    run_fig3_shake,
    run_pmd_sweep,
)
from dopsim.polcore import InvariantError, NumericsError

SMALL_SHAKE = {
    "scenario": "fig3_shake",
    "seed": 11,
    "dt_s": 0.001,
    "shake": {"windows": 5, "window_s": 0.4},
}


#: The independent oracles the acceptance criteria check the array path
#: against; no run calls them.
ORACLES = [
    "instruments.mc_pair_singlet",
    "instruments.two_stage_projector",
    "polcore.brute_force_trace",
    "sources.dop_two_pure_lines",
]


def public_code() -> dict:
    """module.name -> code object of every public function, and of every
    public method and property of a class, defined in a dopsim module."""
    out = {}
    for info in pkgutil.iter_modules(dopsim.__path__):
        module = importlib.import_module(f"dopsim.{info.name}")
        members = [(name, obj) for name, obj in vars(module).items() if not name.startswith("_")]
        for name, obj in list(members):
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", value) for attr, value in vars(obj).items() if not attr.startswith("_")]
        for name, obj in members:
            obj = inspect.unwrap(getattr(obj, "fget", None) or getattr(obj, "__func__", obj))
            if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
                out[f"{info.name}.{name}"] = obj.__code__
    return out


class TestConfigLoading:
    def test_scan_defaults(self):
        cfg = load_config({"scenario": "fig2_scan"})
        assert cfg.seed == 0
        assert cfg.scan.base_count == 5
        assert cfg.scan.two_phi_deg == tuple(float(x) for x in range(0, 100, 10))
        assert cfg.meter.noise_sigma_rel == 0.15
        assert cfg.two_laser.lambda1_nm == 1552.0

    def test_unknown_key_has_field_path(self):
        with pytest.raises(ConfigError, match="meter"):
            load_config({"scenario": "fig2_scan", "meter": {"visibilty": 0.9}})

    def test_bad_value_message_names_field(self):
        with pytest.raises(ConfigError, match="meter.visibility"):
            load_config({"scenario": "fig2_scan", "meter": {"visibility": 1.5}})

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            load_config({"scenario": "warp"})

    def test_seed_precedence(self, monkeypatch):
        doc = {"scenario": "fig2_scan", "seed": 5}
        assert load_config(doc).seed == 5
        assert load_config(doc, seed_override=9).seed == 9
        monkeypatch.setenv("DOPSIM_SEED", "77")
        assert load_config({"scenario": "fig2_scan"}).seed == 77
        monkeypatch.delenv("DOPSIM_SEED")
        assert load_config({"scenario": "fig2_scan"}).seed == 0

    def test_noise_off_override(self):
        cfg = load_config(SMALL_SHAKE, noise_off=True)
        assert cfg.meter.noise_sigma_rel == 0.0
        assert cfg.polarimeter.noise_sigma_rel == 0.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "nope.json")

    def test_fixed_stage_count_enforced(self):
        with pytest.raises(ConfigError, match="stack"):
            load_config({"scenario": "fig2_scan", "meter": {"stack": {"stages": 3}}})

    def test_zero_channel_axis_rejected(self):
        doc = dict(SMALL_SHAKE)
        doc["channel"] = {"axis": [0, 0, 0]}
        with pytest.raises(ConfigError, match="channel.axis"):
            load_config(doc)

    def test_non_unit_axes_are_normalized(self):
        doc = {"scenario": "pmd_sweep", "pmd": {"axis": [2.0, 0.0, 0.0]}}
        cfg = load_config(doc)
        assert cfg.pmd.axis == (1.0, 0.0, 0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config({"scenario": "fig2_scan", "seed": -3})

    @pytest.mark.parametrize(
        "levels,accepted",
        [([0, 180], True), ([0, 1e-3], True), ([0, 1e-4], False), ([90, 270], False), ([170, 190], False)],
    )
    def test_scan_levels_need_two_distinct_dops(self, levels, accepted):
        # 1 - DOP^2 = sin^2(phi) for balanced lines 2phi apart: 7.6e-11 at 1e-3 deg, 7.6e-13 at 1e-4 deg
        doc = {"scenario": "fig2_scan", "scan": {"two_phi_deg": levels}}
        if accepted:
            assert load_config(doc).scan.two_phi_deg == tuple(float(v) for v in levels)
        else:
            with pytest.raises(ConfigError, match=r"^scan\.two_phi_deg: "):
                load_config(doc)

    def test_readme_config_table_lists_each_sections_keys(self):
        # one row per section: its key path and the keys of its rules
        expected = set()

        def walk(rules, prefix):
            for key, rule in rules.items():
                if isinstance(rule, harness.Section):
                    expected.add((prefix + key, tuple(sorted(rule.rules))))
                    walk(rule.rules, f"{prefix}{key}.")

        for spec in harness.SCENARIOS.values():
            walk({**harness.TOP_LEVEL, **spec.sections}, "")
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("### Config reference")[1].split("\n### ")[0]
        rows = [line.strip("|").split("|") for line in table.splitlines() if line.startswith("| `")]
        documented = [
            # a key is the first backquoted name of each entry, outside the parenthesised notes
            (re.search(r"`([\w.]+)`", section).group(1),
             tuple(sorted(re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", keys)))))
            for section, keys in rows
        ]
        assert sorted(documented) == sorted(expected)

    @pytest.mark.parametrize(
        "section,fields,field",
        [
            ("meter", {"gain": 1e151}, "meter.gain"),
            ("meter", {"dark_offset": -1e151}, "meter.dark_offset"),
            ("meter", {"gain": 1e100, "noise_sigma_rel": 1e60}, "meter.gain"),
            ("meter", {"noise_sigma_rel": 1e150}, "meter.noise_sigma_rel"),
            ("channel", {"retardance_mean_rad": -1e151}, "channel.retardance_mean_rad"),
            ("channel", {"retardance_mean_rad": 1e149, "retardance_sigma_rad": 1e149}, "channel.retardance_sigma_rad"),
            ("channel", {"axis_diffusion_rad2_per_s": 1e154}, "channel.axis_diffusion_rad2_per_s"),
        ],
    )
    def test_scale_bounds_name_their_largest_term(self, section, fields, field):
        # the readout scale (gain + |dark_offset|) (1 + 10 noise_sigma_rel)
        # and the walk's reach stay within 1e150; dt_s is 1e-3 for shake
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: .* exceeds 1e\+150"):
            load_config(dict(SMALL_SHAKE, **{section: fields}))
        assert load_config(dict(SMALL_SHAKE, **{section: {key: 1e-12 * value for key, value in fields.items()}}))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config_file(path)


class TestScan:
    def test_noiseless_scan_matches_prediction(self):
        cfg = load_config({"scenario": "fig2_scan", "meter": {"noise_sigma_rel": 0.0}})
        result = run_fig2_scan(cfg)
        assert len(result.records) == 150
        slope, intercept = predicted_scan_line(cfg)
        assert abs(result.summary["slope"] - slope) < 1e-9
        assert abs(result.summary["intercept"] - intercept) < 1e-9
        assert result.summary["r_squared"] >= 1.0 - 1e-12
        for level in result.summary["per_level"]:
            assert level["repeats"] == 15
            assert level["readout_std"] < 1e-12

    def test_noisy_scan_is_deterministic(self):
        doc = {"scenario": "fig2_scan", "seed": 21}
        a = run_fig2_scan(load_config(doc))
        b = run_fig2_scan(load_config(doc))
        assert a.records == b.records

    def test_unbalanced_intensities_still_linear(self):
        cfg = load_config(
            {
                "scenario": "fig2_scan",
                "source": {"intensity1": 2.0, "intensity2": 0.5},
                "meter": {"noise_sigma_rel": 0.0, "visibility": 0.9, "gain": 1.7, "dark_offset": 0.03},
            }
        )
        result = run_fig2_scan(cfg)
        assert result.summary["r_squared"] >= 1.0 - 1e-12
        slope, intercept = predicted_scan_line(cfg)
        assert abs(result.summary["slope"] - slope) < 1e-9
        assert abs(result.summary["intercept"] - intercept) < 1e-9

    def test_per_circle_normalization_supported(self):
        cfg = load_config(
            {"scenario": "fig2_scan", "scan": {"normalization": "per_circle"},
             "meter": {"noise_sigma_rel": 0.0}}
        )
        result = run_fig2_scan(cfg)
        top = [level for level in result.summary["per_level"] if level["two_phi_deg"] == 90.0][0]
        assert abs(top["normalized_mean"] - 1.0) < 1e-12

    def test_per_circle_reference_on_every_circle(self):
        # the 90 deg level's 1 - DOP^2 is largest on circle 2 alone, by ULPs;
        # each circle still takes its own 90 deg points as its reference
        cfg = load_config(
            {"scenario": "fig2_scan", "scan": {"normalization": "per_circle", "base_step_deg": 23},
             "meter": {"noise_sigma_rel": 0.0}}
        )
        result = run_fig2_scan(cfg)
        x = np.array([r.one_minus_dop2 for r in result.records])
        assert {r.circle for r, richest in zip(result.records, x == x.max()) if richest} == {2}
        expected = []
        for level in cfg.scan.two_phi_deg:
            ratios = []
            for c in cfg.scan.circles:
                ref = np.mean([r.readout_mean for r in result.records if r.circle == c and r.two_phi_deg == 90.0])
                ratios += [r.readout_mean / ref for r in result.records if r.circle == c and r.two_phi_deg == level]
            expected.append(float(np.mean(ratios)))
        assert [level["normalized_mean"] for level in result.summary["per_level"]] == expected


class TestShake:
    def test_deterministic(self):
        a = run_fig3_shake(load_config(SMALL_SHAKE))
        b = run_fig3_shake(load_config(SMALL_SHAKE))
        assert a.records == b.records

    def test_first_and_last_windows_are_references(self):
        result = run_fig3_shake(load_config(SMALL_SHAKE))
        assert not result.records[0].shaken
        assert not result.records[-1].shaken
        assert all(r.shaken for r in result.records[1:-1])

    def test_meter_stable_polarimeter_drops(self):
        result = run_fig3_shake(load_config(SMALL_SHAKE))
        for r in result.records:
            assert abs(r.meter_dop - result.summary["reference_meter_dop"]) < 0.03
        for r in result.records[1:-1]:
            assert r.polarimeter_dop < r.meter_dop

    def test_no_shaking_keeps_both_flat(self):
        doc = dict(SMALL_SHAKE)
        doc["channel"] = {"axis_diffusion_rad2_per_s": 0.0, "retardance_sigma_rad": 0.0}
        result = run_fig3_shake(load_config(doc, noise_off=True))
        values = {round(r.meter_dop, 9) for r in result.records}
        assert len(values) == 1
        for r in result.records:
            assert abs(r.polarimeter_dop - r.meter_dop) < 1e-6

    def test_default_integration_is_one_window(self):
        explicit = dict(SMALL_SHAKE, polarimeter={"integration_time_s": SMALL_SHAKE["shake"]["window_s"]})
        assert run_fig3_shake(load_config(SMALL_SHAKE)).records == run_fig3_shake(load_config(explicit)).records

    def test_angular_coverage_reported(self):
        result = run_fig3_shake(load_config(SMALL_SHAKE))
        assert result.summary["scrambling_mean_deflection_rad"] > 0.3
        assert result.summary["scrambling_max_deflection_rad"] <= math.pi + 1e-12


class TestTrajectoryCsv:
    def test_round_trip_columns(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        with harness.csv_writer(path, harness.TRAJECTORY_CSV_HEADER, harness.TRAJECTORY_CSV_ROW) as write:
            write(np.array([(0.0, 0, 0, 1, 1.0), (0.1, 0, 1, 0, 2.0)]))
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "time_s,axis1,axis2,axis3,retardance_rad"
        assert rows[1] == "0,0,0,1,1"
        assert rows[2] == "0.1,0,1,0,2"

    @pytest.mark.parametrize("block", [1, 3, harness.BLOCK_SAMPLES])
    def test_blocks_render_as_rows_one_by_one(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(harness, "BLOCK_SAMPLES", block)
        rng = np.random.default_rng(5)
        window, value, flag = np.arange(10), rng.standard_normal(10) * 1e3, rng.random(10) < 0.5
        path = tmp_path / "mixed.csv"
        rows = list(zip(window.tolist(), value.tolist(), flag.tolist()))
        with harness.csv_writer(path, ("window", "value", "flag"), "%d,%.12g,%d\r\n") as write:
            write(np.column_stack((window, value, flag))[:4])  # an array
            write(rows[4:])  # tuples
        expected = "".join("%d,%.12g,%d\r\n" % row for row in rows)
        assert path.read_bytes() == ("window,value,flag\r\n" + expected).encode()

    def test_exception_leaves_no_file(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text("earlier run\n")
        with pytest.raises(RuntimeError):
            with harness.csv_writer(path, harness.TRAJECTORY_CSV_HEADER, harness.TRAJECTORY_CSV_ROW) as write:
                write(np.array([(0.0, 0, 0, 1, 1.0)]))
                raise RuntimeError("run failed")
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]
        assert path.read_text() == "earlier run\n"


def counted(k, error=None):
    """0 .. k - 1, then ``error`` raised if given."""
    yield from range(k)
    if error is not None:
        raise error


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestChildIterator:
    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize(
        "error",
        [InvariantError("evolve_window: fiber state left the finite range"), ZeroDivisionError("float division by zero")],
        ids=["invariant", "zero_division"],
    )
    def test_error_after_k_items_reaches_the_caller_after_them(self, monkeypatch, forked, k, error):
        if not forked:
            monkeypatch.delattr(os, "fork")
        received = []
        with pytest.raises(type(error)) as raised:
            with child_iterator(counted(k, error)) as items:
                for item in items:
                    received.append(item)
        assert received == list(range(k))
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        assert_no_child_left()

    def test_items_larger_than_the_pipe_buffer_arrive_whole(self):
        blocks = [np.random.default_rng(i).standard_normal((2048 * (i + 1), 4)) for i in range(3)]
        with child_iterator(iter(blocks)) as items:
            received = list(items)
        assert all(np.array_equal(a, b) for a, b in zip(received, blocks)) and len(received) == 3
        assert_no_child_left()

    def test_runs_in_another_process(self):
        with child_iterator(os.getpid() for _ in range(2)) as items:
            assert os.getpid() not in set(items)

    def test_consumer_that_stops_early_leaves_no_child(self):
        endless = counted(10**9)
        with pytest.raises(RuntimeError, match="consumer failed"):
            with child_iterator(endless) as items:
                for item in items:
                    if item == 2:
                        raise RuntimeError("consumer failed")
        assert_no_child_left()
        with child_iterator(counted(10**9)) as items:
            assert next(items) == 0
        assert_no_child_left()


class TestPmdSweep:
    def test_zero_dgd_full_dop_and_monotone_decay(self):
        result = run_pmd_sweep(load_config({"scenario": "pmd_sweep"}))
        assert abs(result.records[0].source_dop - 1.0) < 1e-12
        assert abs(result.records[0].meter_dop - 1.0) < 1e-9
        for a, b in zip(result.records, result.records[1:]):
            assert b.source_dop <= a.source_dop + 1e-12
            assert b.meter_dop <= a.meter_dop + 1e-9
        assert result.records[-1].source_dop < 0.01

    def test_meter_tracks_source_when_pairs_clean(self):
        result = run_pmd_sweep(load_config({"scenario": "pmd_sweep"}))
        for r in result.records:
            assert abs(r.meter_dop - r.source_dop) < 1e-6

    def test_degenerate_geometry_flagged_not_raised(self):
        doc = {"scenario": "pmd_sweep", "pmd": {"axis": [0.0, 0.0, 1.0]}}
        result = run_pmd_sweep(load_config(doc))
        assert result.summary["degenerate_geometry"]
        for r in result.records:
            assert abs(r.source_dop - 1.0) < 1e-12


class TestCalibrate:
    def test_noiseless_recovery_is_exact(self):
        doc = {
            "scenario": "calibrate",
            "meter": {"gain": 3.1, "dark_offset": 0.07, "visibility": 0.94, "noise_sigma_rel": 0.0},
        }
        record = run_calibrate(load_config(doc))
        assert abs(record["gain"] - 3.1) < 1e-12
        assert abs(record["dark_offset"] - 0.07) < 1e-12

    def test_noisy_recovery_close(self):
        doc = {"scenario": "calibrate", "seed": 2, "calibration": {"samples": 4000}}
        record = run_calibrate(load_config(doc))
        assert abs(record["gain"] - 1.0) < 0.05
        assert abs(record["dark_offset"]) < 0.02


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


DEGENERATE = (
    "{field}: the line pairs are fully degenerate (mean contamination 1), so the meter reading cannot be inverted"
)

EMPTY_MEASUREMENTS = {
    "scan_far_lines": (
        "scan", {"scenario": "fig2_scan", "source": {"lambda2_nm": 1600}},
        "source.lambda2_nm: no line pair within the meter acceptance (4.5 nm)",
    ),
    "calibrate_far_lines": (
        "calibrate", {"scenario": "calibrate", "source": {"lambda2_nm": 1600}},
        "source.lambda2_nm: no line pair within the meter acceptance (4.5 nm)",
    ),
    "pmd_far_sidebands": (
        "pmd", {"scenario": "pmd_sweep", "source": {"bitrate_hz": 2e13}},
        "source.bitrate_hz: no line pair within the meter acceptance (4.5 nm)",
    ),
    "shake_far_lines": (
        "shake", dict(SMALL_SHAKE, source={"lambda2_nm": 1600}),
        "source.lambda2_nm: no line pair within the meter acceptance (4.5 nm)",
    ),
    "scan_dark_line": (
        "scan", {"scenario": "fig2_scan", "source": {"intensity1": 0}},
        "source.intensity1: no line pair within the meter acceptance carries light",
    ),
    "pmd_dark_sidebands": (
        "pmd", {"scenario": "pmd_sweep", "source": {"intensity_split": [0, 1, 0]}},
        "source.intensity_split: no line pair within the meter acceptance carries light",
    ),
    "scan_one_level": (
        "scan", {"scenario": "fig2_scan", "scan": {"two_phi_deg": [0]}},
        "scan.two_phi_deg: a line fit needs levels of at least two distinct DOPs",
    ),
    "scan_one_point": (
        "scan",
        {"scenario": "fig2_scan", "scan": {"circles": [0], "base_count": 1, "two_phi_deg": [0]},
         "meter": {"noise_sigma_rel": 0.0}},
        "scan.two_phi_deg: a line fit needs levels of at least two distinct DOPs",
    ),
    "scan_one_dop_level": (
        "scan", {"scenario": "fig2_scan", "scan": {"two_phi_deg": [10, 350, -10, 370]}},
        "scan.two_phi_deg: a line fit needs levels of at least two distinct DOPs",
    ),
    "scan_zero_visibility": (
        "scan", {"scenario": "fig2_scan", "meter": {"visibility": 0}},
        "meter.visibility: must be > 0.0, got 0.0",
    ),
    # lines so close that their contamination rounds to 1: the pair reads
    # 1/4 whatever the polarization
    "scan_degenerate_pair": (
        "scan", {"scenario": "fig2_scan", "source": {"lambda1_nm": 1552.0, "lambda2_nm": 1552.0000000001}},
        DEGENERATE.format(field="source.lambda2_nm"),
    ),
    "shake_degenerate_pair": (
        "shake", dict(SMALL_SHAKE, source={"lambda1_nm": 1552.0, "lambda2_nm": 1552.0000000001}),
        DEGENERATE.format(field="source.lambda2_nm"),
    ),
    "calibrate_degenerate_pair": (
        "calibrate", {"scenario": "calibrate", "source": {"lambda1_nm": 1552.0, "lambda2_nm": 1552.0000000001}},
        DEGENERATE.format(field="source.lambda2_nm"),
    ),
    "pmd_degenerate_sidebands": (
        "pmd", {"scenario": "pmd_sweep", "source": {"bitrate_hz": 1e3}},
        DEGENERATE.format(field="source.bitrate_hz"),
    ),
}


class TestCli:
    def test_validate_config_ok(self, tmp_path, capsys):
        path = write_json(tmp_path / "scan.json", {"scenario": "fig2_scan"})
        assert cli_main(["validate-config", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_config_rejects_with_field(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"scenario": "fig2_scan", "dt_s": -1})
        assert cli_main(["validate-config", path]) == 2
        assert "dt_s" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "scan.json", {"scenario": "fig2_scan"})
        assert cli_main(["scan", "--config", path, "--frobnicate"]) == 2

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        # every call shares one parser, which reports a usage error as a fresh one does
        assert build_parser() is build_parser()
        path = write_json(tmp_path / "scan.json", {"scenario": "fig2_scan"})
        for argv in (["scan", "--config", path, "--frobnicate"], ["scan"], ["frobnicate"]) * 2:
            with pytest.raises(SystemExit):
                build_parser.__wrapped__().parse_args(argv)
            fresh = capsys.readouterr().err
            assert cli_main(argv) == 2
            assert capsys.readouterr() == ("", fresh)
        assert cli_main(["validate-config", path]) == 0

    def test_scenario_command_mismatch_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "scan.json", {"scenario": "fig2_scan"})
        assert cli_main(["shake", "--config", path]) == 2

    def test_scan_noise_off_writes_perfect_fit(self, tmp_path, capsys):
        path = write_json(tmp_path / "scan.json", {"scenario": "fig2_scan", "seed": 4})
        out = tmp_path / "results"
        assert cli_main(["scan", "--config", path, "--out", str(out), "--noise", "off"]) == 0
        summary = json.loads((out / "scan_summary.json").read_text())
        assert summary["r_squared"] >= 1.0 - 1e-12
        csv_text = (out / "scan.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == "circle,base_idx,two_phi_deg,true_dop,one_minus_dop2,readout_mean,readout_std"
        assert len(csv_text.splitlines()) == 151

    @pytest.mark.parametrize("normalization", ["global", "per_circle"])
    def test_undefined_normalized_mean_is_null(self, tmp_path, normalization):
        # a dark offset far below zero leaves no positive reference readout
        doc = {"scenario": "fig2_scan", "scan": {"normalization": normalization}, "meter": {"dark_offset": -10}}
        path = write_json(tmp_path / "scan.json", doc)
        assert cli_main(["scan", "--config", path, "--out", str(tmp_path / "out")]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        summary = json.loads((tmp_path / "out" / "scan_summary.json").read_text(), parse_constant=reject)
        assert [level["normalized_mean"] for level in summary["per_level"]] == [None] * 10

    def test_shake_seeded_runs_are_byte_identical(self, tmp_path):
        doc = dict(SMALL_SHAKE)
        doc["output"] = {"trajectory_csv": "trajectory.csv"}
        path = write_json(tmp_path / "shake.json", doc)
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli_main(["shake", "--config", path, "--seed", "7", "--out", str(out)]) == 0
            outputs.append(
                (
                    (out / "shake.csv").read_bytes(),
                    (out / "shake_summary.json").read_bytes(),
                    (out / "trajectory.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("failing", [False, True], ids=["rerun", "failed_rerun"])
    def test_rerun_into_one_out_replaces_the_outputs(self, tmp_path, monkeypatch, failing):
        # a rerun unlinks each earlier output only once the new one is
        # ready: a rerun that fails leaves the earlier outputs as they were
        doc = dict(SMALL_SHAKE, output={"trajectory_csv": "trajectory.csv"})
        out = tmp_path / "out"
        argv = ["shake", "--config", write_json(tmp_path / "shake.json", doc), "--out", str(out)]

        def outputs():
            return {p.name: p.read_bytes() for p in out.iterdir()}

        assert cli_main(argv) == 0
        first = outputs()
        assert sorted(first) == ["shake.csv", "shake_summary.json", "trajectory.csv"]
        if failing:
            def fails(*args, **kwargs):
                raise NumericsError("polarimeter_dop: injected failure")

            monkeypatch.setattr(harness, "polarimeter_dop", fails)
            assert cli_main(argv) == 3
        else:
            assert cli_main(argv) == 0
        assert outputs() == first
        assert_no_child_left()

    def test_shake_outputs_without_fork_are_byte_identical(self, tmp_path, monkeypatch):
        doc = dict(SMALL_SHAKE, output={"trajectory_csv": "trajectory.csv"})
        path = write_json(tmp_path / "shake.json", doc)
        outputs = []
        for run in ("forked", "in_process"):
            if run == "in_process":
                monkeypatch.delattr(os, "fork")
            out = tmp_path / run
            assert cli_main(["shake", "--config", path, "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == ["shake.csv", "shake_summary.json", "trajectory.csv"]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "section,fields,path",
        [
            ("channel", {"ref_wavelength_nm": "x"}, "channel.ref_wavelength_nm"),
            ("channel", {"ref_wavelength_nm": 0}, "channel.ref_wavelength_nm"),
            ("channel", {"ref_wavelength_nm": -5}, "channel.ref_wavelength_nm"),
            ("channel", {"seed": -1}, "channel.seed"),
            ("polarimeter", {"integration_time_s": 0.8}, "polarimeter.integration_time_s"),
        ],
        ids=["ref_wavelength_str", "ref_wavelength_zero", "ref_wavelength_negative",
             "channel_seed_negative", "integration_longer_than_window"],
    )
    def test_shake_config_error_exits_2_naming_field(self, tmp_path, capsys, section, fields, path):
        config = write_json(tmp_path / "shake.json", dict(SMALL_SHAKE, **{section: fields}))
        assert cli_main(["shake", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case,validate",
        [(case, False) for case in EMPTY_MEASUREMENTS] + [(case, True) for case in EMPTY_MEASUREMENTS],
        ids=list(EMPTY_MEASUREMENTS) + [f"{case}_validate" for case in EMPTY_MEASUREMENTS],
    )
    def test_empty_measurement_exits_2_naming_field(self, tmp_path, capsys, case, validate):
        # the meter sees no signal: flagged when the config loads -- by
        # validate-config as by the run -- not reported as a fit or a calibration
        command, doc, message = EMPTY_MEASUREMENTS[case]
        config = write_json(tmp_path / "empty.json", doc)
        run = [command, "--config", config, "--out", str(tmp_path / "out")]
        assert cli_main(["validate-config", config] if validate else run) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_pmd_and_calibrate_commands(self, tmp_path):
        pmd_path = write_json(tmp_path / "pmd.json", {"scenario": "pmd_sweep"})
        assert cli_main(["pmd", "--config", pmd_path, "--out", str(tmp_path / "p")]) == 0
        assert (tmp_path / "p" / "pmd.csv").exists()
        assert (tmp_path / "p" / "pmd_summary.json").exists()

        cal_path = write_json(tmp_path / "cal.json", {"scenario": "calibrate", "seed": 3})
        assert cli_main(["calibrate", "--config", cal_path, "--out", str(tmp_path / "c")]) == 0
        record = json.loads((tmp_path / "c" / "calibration.json").read_text())
        assert set(record) >= {"gain", "dark_offset", "visibility"}

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        path = write_json(tmp_path / "scan.json", {"scenario": "fig2_scan"})
        monkeypatch.setenv("DOPSIM_SEED", "123")
        out = tmp_path / "env"
        assert cli_main(["scan", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "scan_summary.json").read_text())
        assert summary["seed"] == 123

    def test_every_public_function_runs_on_the_shipped_configs(self, tmp_path, monkeypatch):
        # each shipped config, run and validated in process with the walk
        # unforked, calls every public function and method of the package
        # but the independent oracles and the console entry point
        monkeypatch.delattr(os, "fork")
        monkeypatch.delenv(harness.DEFAULT_SEED_ENV, raising=False)
        build_parser.cache_clear()  # built once per process: an earlier test may have built it
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        sys.setprofile(profile)
        try:
            for config in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json")):
                command = harness.SCENARIOS[json.loads(config.read_text())["scenario"]].command
                assert cli_main([command, "--config", str(config), "--out", str(tmp_path / config.stem)]) == 0
                assert cli_main(["validate-config", str(config)]) == 0
        finally:
            sys.setprofile(None)
        uncalled = sorted(name for name, code in public_code().items() if code not in called)
        assert uncalled == sorted(ORACLES + ["cli.main"])

    def test_console_entry_point(self, tmp_path):
        path = write_json(tmp_path / "scan.json", {"scenario": "fig2_scan"})
        # the child imports dopsim from wherever this process does
        src = str(Path(dopsim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "dopsim.cli", "validate-config", path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout
