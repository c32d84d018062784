"""The CLI's exit contract on hostile configs.

Each example takes a shipped config (the shake cut to four windows of
0.05 s), sets one or two of its leaves -- a value, or an entry of a list
field -- to a hostile value, and runs it through ``cli_main``, both as its
scenario command and as ``validate-config``.  Every call returns 0, 2 or 3
and prints nothing to stdout on failure; every config error names a field
path of the harness's rule tables; and ``validate-config`` rejects exactly
what the run rejects as a config error, with the same message.
"""

import copy
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dopsim import harness
from dopsim.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
VALUES = [0, -1, 1e300, 1e-300, "x", 2**63, [], None, True, math.inf, math.nan]


def base_docs() -> dict[str, dict]:
    docs = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        doc = json.loads(path.read_text())
        if doc["scenario"] == "fig3_shake":
            doc["shake"].update(windows=4, window_s=0.05)
            doc["polarimeter"]["integration_time_s"] = 0.05
        docs[path.stem] = doc
    return docs


def leaves(node, path=()):
    """Paths of every value below node that is not an object, and of every list entry."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)
            if isinstance(value, list):
                yield from leaves(value, path + (key,))


def field_paths() -> set[str]:
    """Every field path the rule tables of any scenario name, sections included."""
    paths = {"config"}

    def walk(rules, prefix):
        for key, rule in rules.items():
            paths.add(prefix + key)
            if isinstance(rule, harness.Section):
                walk(rule.rules, f"{prefix}{key}.")

    for spec in harness.SCENARIOS.values():
        walk({**harness.TOP_LEVEL, **spec.sections}, "")
    return paths


BASES = base_docs()
FIELDS = field_paths()


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    command = harness.SCENARIOS[doc["scenario"]].command
    for _ in range(draw(st.integers(1, 2))):
        *parents, last = draw(st.sampled_from(list(leaves(doc))))
        node = doc
        for key in parents:
            node = node[key]
        node[last] = draw(st.sampled_from(VALUES))
    return command, doc


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(case=mutated_configs())
def test_exit_code_and_message(case, tmp_path_factory, capsys, monkeypatch):
    monkeypatch.delenv(harness.DEFAULT_SEED_ENV, raising=False)
    command, doc = case
    # a fresh directory per example: new files, where overwriting one is slow on some file systems
    directory = tmp_path_factory.mktemp("contract")
    config = directory / "config.json"
    config.write_text(json.dumps(doc))  # inf and nan go out as Infinity and NaN, which json reads back

    results = []
    run = [command, "--config", str(config), "--out", str(directory / "out")]
    for argv in (run, ["validate-config", str(config)]):
        code = cli_main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv[0], err)
        if code:
            assert out == "", argv[0]
        if code == 2:
            field = re.match(r"config error: ([^:]+): ", err)
            assert field and field.group(1) in FIELDS, err
        results.append(err if code == 2 else None)
    # validate-config rejects exactly what the run rejects, with the same message
    assert results[0] == results[1]


#: Changes to the shipped configs that once ended in a traceback, a run with
#: no end, or an exit 2 whose message named no field: (id, config, change,
#: the field the error must name).
ONCE_UNNAMED = [
    ("scan_points", "fig2_scan", {"scan": {"base_count": 2**63}}, "scan.base_count"),
    ("scan_samples", "fig2_scan", {"scan": {"samples_per_point": 2**63}}, "scan.samples_per_point"),
    ("scan_level_inf", "fig2_scan", {"scan": {"two_phi_deg": [0, 10, math.inf]}}, "scan.two_phi_deg"),
    ("calibrate_samples", "calibrate", {"calibration": {"samples": 2**63}}, "calibration.samples"),
    ("shake_windows", "fig3_shake", {"shake": {"windows": 2**63}}, "shake.windows"),
    ("shake_window_huge", "fig3_shake", {"shake": {"window_s": 2**63}}, "shake.window_s"),
    ("shake_window_1e300", "fig3_shake", {"shake": {"window_s": 1e300}}, "shake.window_s"),
    ("shake_dt_tiny", "fig3_shake", {"dt_s": 1e-300}, "shake.window_s"),
    ("pmd_steps", "pmd_sweep", {"pmd": {"dgd_steps": 2**63}}, "pmd.dgd_steps"),
    ("pmd_carrier_huge", "pmd_sweep", {"source": {"carrier_nm": 1e300}}, "source.carrier_nm"),
    ("pmd_narrow_carrier_huge", "pmd_sweep_narrow", {"source": {"carrier_nm": 1e300}}, "source.carrier_nm"),
    ("pmd_dgd_huge", "pmd_sweep", {"pmd": {"dgd_stop_s": 1e300}}, "pmd.dgd_stop_s"),
    ("pmd_bitrate_tiny", "pmd_sweep", {"source": {"bitrate_hz": 1e-300}}, "source.bitrate_hz"),
    ("pmd_carrier_tiny", "pmd_sweep", {"source": {"carrier_nm": 1e-300}}, "source.bitrate_hz"),
    ("pmd_split_sum_inf", "pmd_sweep", {"source": {"intensity_split": [1e308] * 3}}, "source.intensity_split"),
    ("pmd_no_visibility", "pmd_sweep", {"meter": {"visibility": 0}}, "meter.visibility"),
    ("shake_no_visibility", "fig3_shake", {"meter": {"visibility": 0}}, "meter.visibility"),
    ("calibrate_no_visibility", "calibrate", {"meter": {"visibility": 0}}, "meter.visibility"),
    ("shake_intensity_1e300", "fig3_shake", {"source": {"intensity1": 1e300}}, "source.intensity1"),
    ("shake_intensity2_1e300", "fig3_shake", {"source": {"intensity2": 1e300}}, "source.intensity2"),
]


def merged(doc: dict, change: dict) -> dict:
    out = copy.deepcopy(doc)
    for key, value in change.items():
        out[key] = merged(out[key], value) if isinstance(value, dict) else value
    return out


@pytest.mark.parametrize(
    "config,change,field", [case[1:] for case in ONCE_UNNAMED], ids=[case[0] for case in ONCE_UNNAMED]
)
def test_once_unnamed_error_names_its_field(tmp_path, capsys, config, change, field):
    doc = merged(BASES[config], change)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    command = harness.SCENARIOS[doc["scenario"]].command
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


#: One output per key, each named in a directory that does not exist and
#: run without --out: (config, output key).
MISSING_DIRECTORY = [
    ("fig2_scan", "records_csv"),
    ("pmd_sweep", "summary_json"),
    ("fig3_shake", "trajectory_csv"),
    ("calibrate", "calibration_json"),
]


@pytest.mark.parametrize("config,key", MISSING_DIRECTORY, ids=[key for _, key in MISSING_DIRECTORY])
def test_missing_output_directory_exits_2_before_the_run(tmp_path, capsys, monkeypatch, config, key):
    monkeypatch.chdir(tmp_path)
    doc = merged(BASES[config], {"output": {key: "no/such/dir/out.file"}})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    command = harness.SCENARIOS[doc["scenario"]].command
    assert cli_main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: output.{key}: directory does not exist\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # nothing ran, nothing was written
    # the directory depends on --out, so validate-config does not look at it
    assert cli_main(["validate-config", str(path)]) == 0


def test_output_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    doc = merged(BASES["calibrate"], {"output": {"calibration_json": "taken"}})
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert cli_main(["calibrate", "--config", "config.json"]) == 2
    assert capsys.readouterr().err == "config error: output.calibration_json: is a directory\n"


def test_out_that_is_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASES["calibrate"]))
    assert cli_main(["calibrate", "--config", str(path), "--out", str(tmp_path / "taken")]) == 2
    assert capsys.readouterr().err.startswith("config error: --out: cannot make directory ")


def test_overflow_during_a_run_exits_3(tmp_path, capsys):
    # a readout scale whose square leaves the float range: the fit's
    # residuals overflow, a numerical failure rather than a warning
    path = tmp_path / "config.json"
    path.write_text(json.dumps(merged(BASES["fig2_scan"], {"meter": {"gain": 1e300}})))
    out = tmp_path / "out"
    assert cli_main(["scan", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: overflow")
    assert list(out.iterdir()) == []
