"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured runtime (run with `pytest -s` to see them).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from dopsim.harness import load_config, predicted_scan_line, run_fig2_scan, run_fig3_shake
from dopsim.instruments import (
    CrystalStack,
    MeterConfig,
    PolarizationTrace,
    acceptance_bandwidth,
    effective_length,
    mc_pair_singlet,
    singlet_meter_raw,
)
from dopsim.polcore import (
    PoincareVector,
    brute_force_trace,
    density_from_poincare,
    dop,
    mix,
    poincare_from_density,
    rotate_poincare,
    singlet_probability,
    singlet_projector,
)
from dopsim.sources import (
    SourceSpec,
    SpectralLine,
    dop_two_pure_lines,
    great_circle_pair,
    modulation_wavelength_offset_nm,
    source_dop,
    two_laser_source,
)
from helpers import random_poincare, random_unit_vector


@contextmanager
def criterion(number: int, label: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label} ({time.perf_counter() - start:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS - {label} ({elapsed:.2f} s < {limit_s:g} s)")
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s} s runtime budget"


def rotated_source(src: SourceSpec, axis, angle: float) -> SourceSpec:
    return SourceSpec(
        tuple(
            SpectralLine(
                line.wavelength_nm,
                line.intensity,
                density_from_poincare(rotate_poincare(line.poincare(), axis, angle)),
            )
            for line in src.lines
        )
    )


def test_c1_singlet_probability_matches_trace_oracle():
    with criterion(1, "closed-form pair projection equals explicit 4x4 trace (1000 pairs, 1e-12)", 1.0):
        rng = np.random.default_rng(2003)
        projector = singlet_projector()
        worst = 0.0
        for _ in range(1000):
            rho_a = density_from_poincare(random_poincare(rng))
            rho_b = density_from_poincare(random_poincare(rng))
            delta = abs(
                singlet_probability(rho_a, rho_b) - brute_force_trace(rho_a, rho_b, projector)
            )
            worst = max(worst, delta)
        assert worst < 1e-12


def test_c2_two_line_dop_closed_form_equals_mixture():
    with criterion(2, "two-line DOP closed form equals mixture DOP (1e4 draws, 1e-12)", 1.0):
        rng = np.random.default_rng(2005)
        worst = 0.0
        for _ in range(10_000):
            i1, i2 = rng.uniform(0.01, 5.0, size=2)
            m1 = random_poincare(rng, pure=True)
            m2 = random_poincare(rng, pure=True)
            angle = math.acos(np.clip(m1.as_array() @ m2.as_array(), -1.0, 1.0))
            mixture = mix(
                [density_from_poincare(m1), density_from_poincare(m2)], [i1, i2]
            )
            mixture_dop = dop(poincare_from_density(mixture))
            worst = max(worst, abs(mixture_dop - dop_two_pure_lines(i1, i2, angle)))
        assert worst < 1e-12

        # spot check through the full source path
        m1, m2 = great_circle_pair(0, 0.0, 90.0)
        src = two_laser_source(1552.0, 1554.0, 1.0, 1.0, m1, m2)
        assert abs(source_dop(src) - dop_two_pure_lines(1.0, 1.0, math.pi / 2)) < 1e-12
        assert abs(dop_two_pure_lines(1.0, 1.0, math.pi / 2) - 0.70711) < 1e-5
        assert abs(dop_two_pure_lines(1.0, 1.0, math.pi / 2) - math.sqrt(0.5)) < 1e-9


def test_c3_scan_linear_law_and_noise_calibration():
    with criterion(3, "scan affine in 1-DOP^2 (R^2, predicted line) and calibrated noise spread", 10.0):
        # noiseless 150-point scan against the analytic line
        cfg = load_config({"scenario": "fig2_scan", "meter": {"noise_sigma_rel": 0.0}})
        result = run_fig2_scan(cfg)
        assert len(result.records) == 150
        slope, intercept = predicted_scan_line(cfg)
        assert result.summary["r_squared"] >= 1.0 - 1e-12
        assert abs(result.summary["slope"] - slope) < 1e-9
        assert abs(result.summary["intercept"] - intercept) < 1e-9

        # default-noise spread: ~15 % of the mean on a depolarized beam,
        # small absolute spread (readout units per unit gain) near DOP = 1
        meter = MeterConfig(noise_sigma_rel=0.15)
        rng = np.random.default_rng(2007)
        m_base, m_anti = great_circle_pair(0, 0.0, 180.0)
        depolarized = two_laser_source(1552.0, 1554.0, 1.0, 1.0, m_base, m_anti)
        readout = singlet_meter_raw(
            PolarizationTrace.static(depolarized, 1000, 1.0), meter, rng
        )
        ratio = readout.std() / readout.mean()
        assert abs(ratio - 0.15) < 0.05

        for two_phi_deg in (0.0, 10.0):
            m1, m2 = great_circle_pair(0, 0.0, two_phi_deg)
            near_polarized = two_laser_source(1552.0, 1554.0, 1.0, 1.0, m1, m2)
            readout = singlet_meter_raw(
                PolarizationTrace.static(near_polarized, 1000, 1.0), meter, rng
            )
            assert readout.std() <= 0.05


def test_c4_visibility_residual_endpoint():
    with criterion(4, "96 % visibility leaves a 0.0200 residual on a fully polarized beam", 1.0):
        m = PoincareVector(0.0, 0.0, 1.0)
        src = two_laser_source(1552.0, 1554.0, 1.0, 1.0, m, m)
        cfg = MeterConfig(visibility=0.96, gain=1.0, dark_offset=0.0)
        readout = singlet_meter_raw(PolarizationTrace.static(src, 16, 1.0), cfg)
        assert abs(float(readout.mean()) - 0.0200) < 1e-9


def test_c5_shaken_fiber_meter_stable_polarimeter_degraded():
    with criterion(5, "shaken fiber: meter within 0.03 of reference, polarimeter collapses", 30.0):
        results = {}
        for dop_target in (1.0, 0.87, 0.5):
            two_phi_deg = math.degrees(2.0 * math.acos(dop_target))
            cfg = load_config(
                {
                    "scenario": "fig3_shake",
                    "seed": 2011,
                    "shake": {"two_phi_deg": two_phi_deg},
                }
            )
            results[dop_target] = run_fig3_shake(cfg)

        for dop_target, result in results.items():
            reference = result.summary["reference_meter_dop"]
            assert abs(reference - dop_target) < 0.02
            for record in result.records:
                assert abs(record.meter_dop - reference) < 0.03
            for record in result.records[1:-1]:
                assert record.shaken
                assert record.polarimeter_dop < record.meter_dop

        dop1_shaken = [r.polarimeter_dop for r in results[1.0].records[1:-1]]
        assert max(dop1_shaken) <= results[1.0].summary["reference_meter_dop"] - 0.3


def test_c6_stack_arithmetic_and_sideband_offsets():
    with criterion(6, "effective length, acceptance scaling and modulation sideband offsets", 1.0):
        assert effective_length(CrystalStack(3.0, 4)) == 12.0
        assert acceptance_bandwidth(CrystalStack(3.0, 4)) == 4.5
        assert acceptance_bandwidth(CrystalStack(3.0, 1)) == 18.0

        offset_pm = modulation_wavelength_offset_nm(1550.0, 1e9) * 1e3
        assert abs(offset_pm - 8.0) / 8.0 < 0.02
        offset_nm = modulation_wavelength_offset_nm(1550.0, 1e12)
        assert abs(offset_nm - 8.0) / 8.0 < 0.02


def test_c7_pair_sampling_reproduces_mixture_law():
    with criterion(7, "1e6-pair Monte Carlo reproduces (1-DOP^2)/4 within 3 sigma, 5 configs", 30.0):
        configs = [
            (1.0, 1.0, 0.0),
            (1.0, 1.0, 90.0),
            (1.0, 1.0, 180.0),
            (3.0, 1.0, 120.0),
            (0.4, 1.7, 65.0),
        ]
        for seed, (i1, i2, two_phi_deg) in enumerate(configs):
            m1, m2 = great_circle_pair(seed % 3, 7.0 * seed, two_phi_deg)
            src = two_laser_source(1552.0, 1554.0, i1, i2, m1, m2)
            expected = (1.0 - source_dop(src) ** 2) / 4.0
            result = mc_pair_singlet(src, 1_000_000, np.random.default_rng(3000 + seed))
            assert abs(result.estimate - expected) <= 3.0 * result.stderr


def test_c8_global_rotation_invariance():
    with criterion(8, "200 global rotations leave noiseless readout and source DOP fixed (1e-12)", 10.0):
        rng = np.random.default_rng(2017)
        m1, m2 = great_circle_pair(0, 20.0, 73.0)
        src = two_laser_source(1552.0, 1554.0, 1.3, 0.7, m1, m2)
        meter = MeterConfig(visibility=1.0)
        base_readout = float(singlet_meter_raw(PolarizationTrace.static(src, 1, 1.0), meter)[0])
        base_dop = source_dop(src)
        for _ in range(200):
            rotated = rotated_source(src, random_unit_vector(rng), rng.uniform(0.0, 2 * math.pi))
            readout = float(singlet_meter_raw(PolarizationTrace.static(rotated, 1, 1.0), meter)[0])
            assert abs(readout - base_readout) < 1e-12
            assert abs(source_dop(rotated) - base_dop) < 1e-12
