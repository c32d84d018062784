"""Output gate: every invocation's files are checked after it returns.

Three kinds of check, none of which uses dopsim itself:

* determinism -- each key's output digests equal those of its first call;
* golden digests -- at the default seed, the frozen-schema CSVs match the
  sha256 digests recorded in ``digests.json``;
* physics invariants -- closed-form facts that hold for any seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

#: Outputs whose schema is frozen; only these are pinned by golden digests.
FROZEN_CSV = ("scan.csv", "shake.csv", "pmd.csv", "pmd_narrow.csv", "trajectory.csv")

SHAKE_METER_TOLERANCE = 0.03  # meter DOP window-to-reference drift
SHAKE_REFERENCE_TOLERANCE = 0.02  # meter reference vs source DOP
PMD_TRACKING_TOLERANCE = 1e-6  # clean (wide) PMD meter vs source DOP
SCAN_SLOPE_REL_TOLERANCE = 0.08  # about 9 standard errors of the 1368-point fit
CALIBRATION_GAIN_REL_TOLERANCE = 0.02
CALIBRATION_DARK_TOLERANCE = 2e-3


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def expected_outputs(doc: dict) -> set[str]:
    return set(doc["output"].values())


def _rows(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _balanced_dop(two_phi_deg: float) -> float:
    """DOP of two equal-power pure lines a sphere angle two_phi apart."""
    return abs(math.cos(math.radians(two_phi_deg) / 2.0))


def _rotate(v, axis, angle):
    c, s = math.cos(angle), math.sin(angle)
    dot = sum(a * b for a, b in zip(axis, v))
    cross = (axis[1] * v[2] - axis[2] * v[1], axis[2] * v[0] - axis[0] * v[2], axis[0] * v[1] - axis[1] * v[0])
    return [v[i] * c + cross[i] * s + axis[i] * dot * (1.0 - c) for i in range(3)]


def _unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _pmd_source_dop(doc: dict, dgd_s: float) -> float:
    """|intensity-weighted mean Poincare vector| of the carrier and sidebands
    after a first-order PMD rotation of 2 pi (nu - nu_carrier) DGD."""
    src = doc["source"]
    carrier = src["carrier_nm"]
    offset = carrier**2 * src["bitrate_hz"] / SPEED_OF_LIGHT_M_PER_S * 1e-9
    axis, m0 = _unit(doc["pmd"]["axis"]), _unit(src["poincare"])
    nu_carrier = SPEED_OF_LIGHT_M_PER_S / (carrier * 1e-9)
    total = [0.0, 0.0, 0.0]
    for wavelength, weight in zip((carrier - offset, carrier, carrier + offset), src["intensity_split"]):
        angle = 2.0 * math.pi * (SPEED_OF_LIGHT_M_PER_S / (wavelength * 1e-9) - nu_carrier) * dgd_s
        for i, x in enumerate(_rotate(m0, axis, angle)):
            total[i] += weight * x
    return math.sqrt(sum(x * x for x in total)) / sum(src["intensity_split"])


def _check_shake(doc: dict, out: Path) -> list[str]:
    rows = _rows(out / doc["output"]["records_csv"])
    summary = _json(out / doc["output"]["summary_json"])
    problems = []
    if len(rows) != doc["shake"]["windows"]:
        problems.append(f"shake: {len(rows)} windows, expected {doc['shake']['windows']}")
        return problems
    if [r["shaken"] for r in rows] != [0.0] + [1.0] * (len(rows) - 2) + [0.0]:
        problems.append("shake: only the first and last windows may be unshaken")
    source = _balanced_dop(doc["shake"]["two_phi_deg"])
    if abs(summary["source_dop"] - source) > 1e-9:
        problems.append(f"shake: source_dop {summary['source_dop']} != closed form {source}")
    reference = 0.5 * (rows[0]["meter_dop"] + rows[-1]["meter_dop"])
    if abs(reference - source) > SHAKE_REFERENCE_TOLERANCE:
        problems.append(f"shake: meter reference {reference} far from source DOP {source}")
    drift = max(abs(r["meter_dop"] - reference) for r in rows)
    if drift > SHAKE_METER_TOLERANCE:
        problems.append(f"shake: meter DOP drifts {drift} from its reference")
    pol_reference = 0.5 * (rows[0]["polarimeter_dop"] + rows[-1]["polarimeter_dop"])
    pol_shaken = sum(r["polarimeter_dop"] for r in rows[1:-1]) / (len(rows) - 2)
    if not pol_shaken < pol_reference:
        problems.append(f"shake: polarimeter not lower when shaken ({pol_shaken} >= {pol_reference})")
    return problems


def _check_scan(doc: dict, out: Path) -> list[str]:
    rows = _rows(out / doc["output"]["records_csv"])
    summary = _json(out / doc["output"]["summary_json"])
    scan = doc["scan"]
    points = len(scan["circles"]) * scan["base_count"] * len(scan["two_phi_deg"])
    problems = []
    if len(rows) != points or summary["points"] != points:
        problems.append(f"scan: {len(rows)} points, expected {points}")
    worst = max(abs(r["true_dop"] - _balanced_dop(r["two_phi_deg"])) for r in rows)
    if worst > 1e-9:
        problems.append(f"scan: true_dop departs from the closed form by {worst}")
    predicted = summary["predicted_slope"]
    if abs(summary["slope"] - predicted) > SCAN_SLOPE_REL_TOLERANCE * abs(predicted):
        problems.append(f"scan: fit slope {summary['slope']} far from predicted {predicted}")
    return problems


def _check_pmd(doc: dict, out: Path) -> list[str]:
    rows = _rows(out / doc["output"]["records_csv"])
    pmd = doc["pmd"]
    steps = pmd["dgd_steps"]
    problems = []
    if len(rows) != steps:
        return [f"pmd: {len(rows)} records, expected {steps}"]
    span = pmd["dgd_stop_s"] - pmd["dgd_start_s"]
    worst_source = max(
        abs(r["source_dop"] - _pmd_source_dop(doc, pmd["dgd_start_s"] + span * k / (steps - 1)))
        for k, r in enumerate(rows)
    )
    if worst_source > 1e-9:
        problems.append(f"pmd: source_dop departs from the rotation oracle by {worst_source}")
    # Only the wide-sideband sweep is a clean meter measurement; the narrow
    # one exists to show degenerate contamination.
    if doc["source"]["bitrate_hz"] >= 2e11:
        worst = max(abs(r["meter_dop"] - r["source_dop"]) for r in rows)
        if worst > PMD_TRACKING_TOLERANCE:
            problems.append(f"pmd: clean meter misses the source DOP by {worst}")
    return problems


def _check_calibrate(doc: dict, out: Path) -> list[str]:
    record = _json(out / doc["output"]["calibration_json"])
    meter = doc["meter"]
    gain, dark = meter.get("gain", 1.0), meter.get("dark_offset", 0.0)
    problems = []
    if record["samples"] != doc["calibration"]["samples"]:
        problems.append("calibrate: wrong sample count")
    if abs(record["gain"] - gain) > CALIBRATION_GAIN_REL_TOLERANCE * gain:
        problems.append(f"calibrate: gain {record['gain']} does not recover {gain}")
    if abs(record["dark_offset"] - dark) > CALIBRATION_DARK_TOLERANCE:
        problems.append(f"calibrate: dark offset {record['dark_offset']} does not recover {dark}")
    return problems


_PHYSICS = {"shake": _check_shake, "scan": _check_scan, "pmd": _check_pmd, "calibrate": _check_calibrate}


def physics_problems(command: str, doc: dict, out: Path) -> list[str]:
    try:
        return _PHYSICS[command](doc, out)
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"{command}: unreadable output ({exc!r})"]


class OutputGate:
    """Checks each invocation; remembers first digests per key."""

    def __init__(self, golden: dict[str, dict[str, str]] | None):
        self.golden = golden
        self.first: dict[str, dict[str, str]] = {}

    def check(self, inv, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"{inv.key}: exit code {exit_code}"]
        got = digests(inv.out)
        missing = expected_outputs(inv.doc) - set(got)
        if missing:
            return [f"{inv.key}: missing outputs {sorted(missing)}"]
        problems = []
        first = self.first.setdefault(inv.key, got)
        if got != first:
            problems.append(f"{inv.key}: outputs differ from the first call of the same config")
        if self.golden is not None:
            for name, digest in self.golden.get(inv.key, {}).items():
                if got.get(name) != digest:
                    problems.append(f"{inv.key}: {name} digest differs from the recorded golden digest")
        return problems + physics_problems(inv.command, inv.doc, inv.out)
