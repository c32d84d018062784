"""Workload generator: derives each workload's scenario configs from the
shipped ``configs/*.json`` and the benchmark seed.

The program under test only ever sees the config files written here.  The
same (workload, seed) always yields byte-identical configs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: The unit each workload's ``units_per_s`` counts.  Why each workload
#: exists is recorded in BENCHMARK.json and README.md.
UNITS = {
    "shake_default": "fiber samples",
    "shake_windows": "fiber samples",
    "sweep": "scan points + DGD steps + calibration reference samples",
}

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload's cycle."""

    key: str
    command: str
    config: Path
    out: Path
    units: int
    doc: dict

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(self.out)]


def _shipped(root: Path, name: str) -> dict:
    with open(root / "configs" / name) as fh:
        return json.load(fh)


def _shake_units(doc: dict) -> int:
    shake = doc["shake"]
    return shake["windows"] * int(round(shake["window_s"] / doc["dt_s"]))


def _random_axis(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return [round(x / n, 12) for x in v]


def _configs(workload: str, seed: int, root: Path) -> list[tuple[str, str, dict, int]]:
    """(key, CLI command, config document, units) for one cycle of the workload."""
    rng = random.Random(f"dopsim-bench/{workload}/{seed}")
    # Both shake workloads are cut to 20k samples so that a run holds about
    # fifteen calls: with the shipped 100k samples (8-13 s a call on two
    # shared cores) a run held two or three, and their median spread by a
    # quarter from run to run.
    if workload == "shake_default":
        doc = _shipped(root, "fig3_shake.json")
        doc["seed"] += seed  # the default seed keeps the shipped seed
        doc["shake"]["window_s"] = 2.0
        doc["polarimeter"]["integration_time_s"] = 2.0
        return [("shake", "shake", doc, _shake_units(doc))]

    if workload == "shake_windows":
        doc = _shipped(root, "fig3_shake.json")
        doc["seed"] = rng.randrange(2**31)
        doc["shake"].update(
            windows=100, window_s=0.2, two_phi_deg=90.0, base_angle_deg=round(rng.uniform(0.0, 360.0), 6)
        )
        doc["polarimeter"]["integration_time_s"] = 0.2
        del doc["output"]["trajectory_csv"]
        return [("shake", "shake", doc, _shake_units(doc))]

    if workload == "sweep":
        scan = _shipped(root, "fig2_scan.json")
        scan["seed"] = rng.randrange(2**31)
        scan["scan"].update(
            base_count=24,
            base_step_deg=round(rng.uniform(5.0, 40.0), 6),
            two_phi_deg=list(range(0, 91, 5)),
        )
        s = scan["scan"]
        scan_points = len(s["circles"]) * s["base_count"] * len(s["two_phi_deg"])

        pmd_axis = _random_axis(rng)
        pmd_docs = []
        for name in ("pmd_sweep.json", "pmd_sweep_narrow.json"):
            doc = _shipped(root, name)
            doc["seed"] = rng.randrange(2**31)
            doc["pmd"].update(axis=pmd_axis, dgd_steps=800)
            pmd_docs.append(doc)

        calibrate = _shipped(root, "calibrate.json")
        calibrate["seed"] = rng.randrange(2**31)
        calibrate["calibration"]["samples"] = 30_000
        return [
            ("scan", "scan", scan, scan_points),
            ("pmd", "pmd", pmd_docs[0], pmd_docs[0]["pmd"]["dgd_steps"]),
            ("pmd_narrow", "pmd", pmd_docs[1], pmd_docs[1]["pmd"]["dgd_steps"]),
            ("calibrate", "calibrate", calibrate, 2 * calibrate["calibration"]["samples"]),
        ]

    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, root: Path, run_dir: Path) -> list[Invocation]:
    """Write the workload's configs under ``run_dir`` and return its cycle."""
    cycle = []
    for key, command, doc, units in _configs(workload, seed, root):
        config = run_dir / "configs" / f"{key}.json"
        config.parent.mkdir(parents=True, exist_ok=True)
        with open(config, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out = run_dir / "out" / key
        out.mkdir(parents=True, exist_ok=True)
        cycle.append(Invocation(key, command, config, out, units, doc))
    return cycle
