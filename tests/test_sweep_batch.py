"""The batched scan and PMD runners against the per-point value-type path.

The per-point path -- one validated two-laser or modulated-carrier beam per
scan point or DGD step, held in an ``oracles.static_trace`` and read by
the meter alone -- is the oracle.  The runners evaluate all points in one
array pass and must equal it bit for bit (``np.array_equal``), records and
summaries, over drawn source, scan, PMD and meter settings.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dopsim import harness
from dopsim.harness import ConfigError, PmdRecord, ScanRecord, _affine_fit, _streams, load_config
from dopsim.instruments import (
    degenerate_contamination,
    invert_meter_readout,
    pair_table,
    singlet_meter_raw,
)
from oracles import (
    PoincareVector,
    apply_pmd,
    great_circle_pair,
    modulated_carrier_source,
    pair_normalization,
    source_dop,
    static_trace,
    two_laser_source,
)

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def meter_section(draw, noise):
    return {
        "visibility": draw(st.floats(0.5, 1.0)),
        "gain": draw(st.floats(0.5, 2.0)),
        "dark_offset": draw(st.floats(0.0, 0.05)),
        "noise_sigma_rel": draw(st.sampled_from(noise)),
        "response_time_s": draw(st.sampled_from([1e-3, 5e-3])),
    }


@st.composite
def scan_docs(draw):
    lambda1 = draw(st.floats(1500.0, 1600.0))
    # inside the 4.5 nm acceptance, on either side, some below the 1.5 nm
    # minimum separation (contaminated)
    separation = draw(st.floats(0.3, 4.4)) * draw(st.sampled_from([1.0, -1.0]))
    levels = st.one_of(st.sampled_from([0.0, 30.0, 90.0, 180.0]), st.floats(0.0, 180.0))
    return {
        "scenario": "fig2_scan",
        "seed": draw(st.integers(0, 2**31)),
        "dt_s": draw(st.sampled_from([1.0, 1e-3, 2e-4])),  # 2e-4 s: a 5-sample response window
        "source": {
            "lambda1_nm": lambda1,
            "lambda2_nm": lambda1 + separation,
            "intensity1": draw(st.floats(0.1, 3.0)),
            "intensity2": draw(st.floats(0.1, 3.0)),
        },
        "scan": {
            "circles": draw(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3)),
            "base_count": draw(st.integers(1, 4)),
            "base_step_deg": draw(st.floats(0.0, 360.0)),
            "two_phi_deg": draw(st.lists(levels, min_size=2, max_size=4)),
            "samples_per_point": draw(st.integers(1, 12)),
            "normalization": draw(st.sampled_from(["global", "per_circle"])),
        },
        "meter": meter_section(draw, [0.0, 0.15]),
    }


@st.composite
def pmd_docs(draw):
    vector = st.tuples(*[st.floats(-3.0, 3.0)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-2)
    poincare = draw(vector)
    start = draw(st.sampled_from([0.0, 1e-13])) * draw(st.integers(0, 3))
    return {
        "scenario": "pmd_sweep",
        "seed": draw(st.integers(0, 2**31)),
        "source": {
            "carrier_nm": draw(st.floats(1500.0, 1600.0)),
            "bitrate_hz": draw(st.floats(5e10, 3e11)),
            "poincare": list(poincare),
            "intensity_split": list(draw(st.tuples(*[st.floats(0.05, 1.0)] * 3))),
        },
        "pmd": {
            # a random axis, off unit norm, or the source's own (degenerate geometry)
            "axis": list(draw(st.one_of(vector, st.just(poincare)))),
            "dgd_start_s": start,
            "dgd_stop_s": start + draw(st.floats(1e-13, 5e-12)),
            "dgd_steps": draw(st.integers(2, 30)),
        },
        "meter": meter_section(draw, [0.0, 0.05]),
    }


def point_beams(source, scan):
    """Each scan point's two-laser beam, in record order: (circle, base_idx,
    two_phi, beam), from the ``source`` and ``scan`` sections as dicts."""
    for circle in scan["circles"]:
        for base_idx in range(scan["base_count"]):
            base_angle = base_idx * scan["base_step_deg"]
            for two_phi in scan["two_phi_deg"]:
                m1, m2 = great_circle_pair(circle, base_angle, two_phi)
                beam = two_laser_source(
                    source["lambda1_nm"], source["lambda2_nm"], source["intensity1"], source["intensity2"], m1, m2
                )
                yield circle, base_idx, float(two_phi), beam


def per_point_scan(cfg):
    """The scan as one two-laser beam and one meter call per point: (records, summary)."""
    scan, src_cfg, meter = cfg.scan, cfg.two_laser, cfg.meter
    _, rng_meter, _, _ = _streams(cfg.seed)
    noisy = meter.noise_sigma_rel > 0.0

    records = []
    for circle, base_idx, two_phi, src in point_beams(dataclasses.asdict(src_cfg), dataclasses.asdict(scan)):
        trace = static_trace(src, scan.samples_per_point, cfg.dt_s)
        readout = singlet_meter_raw(trace, meter, rng_meter if noisy else None)
        true_dop = source_dop(src)
        records.append(
            ScanRecord(
                circle=circle,
                base_idx=base_idx,
                two_phi_deg=two_phi,
                true_dop=true_dop,
                one_minus_dop2=1.0 - true_dop**2,
                readout_mean=float(readout.mean()),
                readout_std=float(readout.std()),
            )
        )

    x = np.array([r.one_minus_dop2 for r in records])
    y = np.array([r.readout_mean for r in records])
    slope, intercept, r_squared = _affine_fit(x, y)
    separation = abs(src_cfg.lambda1_nm - src_cfg.lambda2_nm)
    c = 0.0
    if separation < meter.min_separation_nm:
        c = degenerate_contamination(src_cfg.lambda1_nm, src_cfg.lambda2_nm, meter.stack)
    k = pair_normalization((src_cfg.intensity1, src_cfg.intensity2))
    predicted_slope = meter.gain * meter.visibility * (1.0 - c) / (4.0 * k)
    predicted_intercept = meter.dark_offset + meter.gain * (
        (1.0 - meter.visibility) / 2.0 + meter.visibility * c / 4.0
    )

    per_level = []
    richest = max(r.one_minus_dop2 for r in records)
    global_ref = float(np.mean([r.readout_mean for r in records if r.one_minus_dop2 == richest]))
    # per circle, the reference is the circle's points at the level of the first richest point
    reference_level = next(r.two_phi_deg for r in records if r.one_minus_dop2 == richest)
    for two_phi in scan.two_phi_deg:
        level = [r for r in records if r.two_phi_deg == float(two_phi)]
        values = np.array([r.readout_mean for r in level])
        if scan.normalization == "per_circle":
            normalized = []
            for circle in scan.circles:
                circle_records = [r for r in records if r.circle == circle]
                ref = np.mean([r.readout_mean for r in circle_records if r.two_phi_deg == reference_level])
                normalized.extend(r.readout_mean / ref for r in level if r.circle == circle and ref > 0)
            norm_mean = float(np.mean(normalized)) if normalized else math.nan
        else:
            norm_mean = float(values.mean() / global_ref) if global_ref > 0 else math.nan
        per_level.append(
            {
                "two_phi_deg": float(two_phi),
                "true_dop": level[0].true_dop,
                "readout_mean": float(values.mean()),
                "readout_std": float(values.std(ddof=1)) if len(values) > 1 else 0.0,
                "normalized_mean": norm_mean,
                "repeats": len(values),
            }
        )
    summary = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "points": len(records),
        "slope": slope,
        "intercept": intercept,
        "r_squared": r_squared,
        "predicted_slope": predicted_slope,
        "predicted_intercept": predicted_intercept,
        "normalization": scan.normalization,
        "noise_sigma_rel": meter.noise_sigma_rel,
        "per_level": per_level,
    }
    return records, summary


def per_point_pmd(cfg):
    """The PMD sweep as one apply_pmd, beam and meter call per step: (records, summary)."""
    carrier, pmd, meter = cfg.carrier, cfg.pmd, cfg.meter
    _, rng_meter, _, _ = _streams(cfg.seed)
    noisy = meter.noise_sigma_rel > 0.0
    m0 = PoincareVector.from_array(carrier.poincare)
    src0 = modulated_carrier_source(carrier.carrier_nm, carrier.bitrate_hz, m0, m0, m0, carrier.intensity_split)
    axis = np.asarray(pmd.axis, dtype=float)
    axis_norm = np.linalg.norm(axis)
    degenerate = abs(float(axis @ m0.as_array()) / (axis_norm * m0.norm())) > 1.0 - 1e-9

    records = []
    for dgd in np.linspace(pmd.dgd_start_s, pmd.dgd_stop_s, pmd.dgd_steps):
        src = apply_pmd(src0, float(dgd), tuple(axis / axis_norm), carrier.carrier_nm)
        trace = static_trace(src, 1, cfg.dt_s)
        readout = singlet_meter_raw(trace, meter, rng_meter if noisy else None)
        estimate = invert_meter_readout(readout, meter, pair_table(trace.wavelengths, src.intensities(), meter))
        records.append(
            PmdRecord(
                dgd_s=float(dgd),
                source_dop=source_dop(src),
                meter_dop=float(estimate.dop[0]),
                meter_clipped=bool(estimate.clipped[0]),
            )
        )
    summary = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "degenerate_geometry": degenerate,
        "carrier_nm": carrier.carrier_nm,
        "bitrate_hz": carrier.bitrate_hz,
        "min_source_dop": min(r.source_dop for r in records),
        "min_meter_dop": min(r.meter_dop for r in records),
        "dgd_at_min_source_dop": min(records, key=lambda r: r.source_dop).dgd_s,
    }
    return records, summary


def record_columns(records):
    return np.array(records, dtype=float)


def assert_same(got, expected, where="summary"):
    """Equal in structure and type, numbers equal bit for bit (NaN equal to NaN)."""
    assert type(got) is type(expected), where
    if isinstance(expected, dict):
        assert got.keys() == expected.keys(), where
        for key in expected:
            assert_same(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), where
        for k, (a, b) in enumerate(zip(got, expected)):
            assert_same(a, b, f"{where}[{k}]")
    elif isinstance(expected, float):
        assert np.array_equal(got, expected, equal_nan=True), where
    else:
        assert got == expected, where


@SETTINGS
@given(doc=scan_docs(), block=st.sampled_from([7, harness.BLOCK_SAMPLES]))
def test_scan_equals_per_point_scan(doc, block):
    # points that all share one 1 - DOP^2 leave no line to fit: such a
    # config, and only such a config, is rejected when it loads
    one_minus_dop2 = [1.0 - source_dop(beam) ** 2 for *_, beam in point_beams(doc["source"], doc["scan"])]
    if max(one_minus_dop2) - min(one_minus_dop2) <= 1e-12:
        with pytest.raises(ConfigError, match=r"^scan\.two_phi_deg: "):
            load_config(doc)
        return
    cfg = load_config(doc)
    # a small block splits the meter pass into several calls; the records must not move
    with mock.patch.object(harness, "BLOCK_SAMPLES", block):
        result = harness.run_fig2_scan(cfg)
    records, summary = per_point_scan(cfg)
    assert result.records == records
    assert np.array_equal(record_columns(result.records), record_columns(records))
    assert_same(result.summary, summary)
    assert (result.summary["slope"], result.summary["intercept"], result.summary["r_squared"]) == (
        summary["slope"], summary["intercept"], summary["r_squared"]
    )


@SETTINGS
@given(doc=pmd_docs())
def test_pmd_equals_per_point_pmd(doc):
    cfg = load_config(doc)
    result = harness.run_pmd_sweep(cfg)
    records, summary = per_point_pmd(cfg)
    assert result.records == records
    assert np.array_equal(record_columns(result.records), record_columns(records))
    assert_same(result.summary, summary)
    assert result.summary["degenerate_geometry"] == summary["degenerate_geometry"]
