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
    pair_projection_probability,
    singlet_meter_raw,
    two_stage_projector,
)
from dopsim.polcore import brute_force_trace, mixture_dop_many, rotate_poincare_many
from dopsim.sources import dop_two_pure_lines, great_circle_vectors, modulation_wavelength_offset_nm
from helpers import random_poincare, random_unit_vector

WAVELENGTHS = (1552.0, 1554.0)


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


def held(intensities, poincare, n_samples):
    """A batch of beams (P, L, 3) of the two lines at WAVELENGTHS, each held
    for n_samples samples of 1 s."""
    return PolarizationTrace.held(1.0, WAVELENGTHS, intensities, np.asarray(poincare, dtype=float), n_samples)


def pair_on_circle(circle, base_deg, two_phi_deg):
    """Two unit Poincare vectors (2, 3) two_phi_deg apart on one great circle."""
    return great_circle_vectors([circle] * 2, [base_deg, base_deg + two_phi_deg])


def test_c1_pair_projection_matches_trace_oracle():
    with criterion(1, "closed-form pair projection equals explicit 4x4 trace (1000 pairs, 1e-12)", 1.0):
        rng = np.random.default_rng(2003)
        # the destructive stage phase, where the meter reads the singlet, and three others
        phases = (0.0, 0.7, math.pi / 2, math.pi)
        projectors = [two_stage_projector(phase) for phase in phases]
        worst = 0.0
        for _ in range(1000):
            ma, mb = random_poincare(rng), random_poincare(rng)
            for phase, projector in zip(phases, projectors):
                delta = abs(pair_projection_probability(ma, mb, phase) - brute_force_trace(ma, mb, projector))
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
            angle = math.acos(min(1.0, max(-1.0, float(m1 @ m2))))
            mixture_dop = mixture_dop_many(np.array([[m1, m2]]), [i1, i2])[0]
            worst = max(worst, abs(mixture_dop - dop_two_pure_lines(i1, i2, angle)))
        assert worst < 1e-12

        # spot check on the great-circle geometry the runners use
        lines = pair_on_circle(0, 0.0, 90.0)
        assert abs(mixture_dop_many(lines[None], [1.0, 1.0])[0] - dop_two_pure_lines(1.0, 1.0, math.pi / 2)) < 1e-12
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
        depolarized = pair_on_circle(0, 0.0, 180.0)
        readout = singlet_meter_raw(held([1.0, 1.0], depolarized[None], 1000), meter, rng)[0]
        ratio = readout.std() / readout.mean()
        assert abs(ratio - 0.15) < 0.05

        for two_phi_deg in (0.0, 10.0):
            near_polarized = pair_on_circle(0, 0.0, two_phi_deg)
            readout = singlet_meter_raw(held([1.0, 1.0], near_polarized[None], 1000), meter, rng)[0]
            assert readout.std() <= 0.05


def test_c4_visibility_residual_endpoint():
    with criterion(4, "96 % visibility leaves a 0.0200 residual on a fully polarized beam", 1.0):
        m = [0.0, 0.0, 1.0]
        cfg = MeterConfig(visibility=0.96, gain=1.0, dark_offset=0.0)
        readout = singlet_meter_raw(held([1.0, 1.0], [[m, m]], 16), cfg)[0]
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
            lines = pair_on_circle(seed % 3, 7.0 * seed, two_phi_deg)
            expected = (1.0 - mixture_dop_many(lines[None], [i1, i2])[0] ** 2) / 4.0
            result = mc_pair_singlet([i1, i2], lines, 1_000_000, np.random.default_rng(3000 + seed))
            assert abs(result.estimate - expected) <= 3.0 * result.stderr


def test_c8_global_rotation_invariance():
    with criterion(8, "200 global rotations leave noiseless readout and source DOP fixed (1e-12)", 10.0):
        rng = np.random.default_rng(2017)
        lines = pair_on_circle(0, 20.0, 73.0)
        intensities = [1.3, 0.7]
        meter = MeterConfig(visibility=1.0)
        base_readout = float(singlet_meter_raw(held(intensities, lines[None], 1), meter)[0, 0])
        base_dop = mixture_dop_many(lines[None], intensities)[0]
        rotations = [(random_unit_vector(rng), rng.uniform(0.0, 2 * math.pi)) for _ in range(200)]
        axes = np.array([axis for axis, _ in rotations])
        angles = np.array([[angle, angle] for _, angle in rotations])
        rotated = rotate_poincare_many(lines, axes, angles)  # (200, 2, 3): every line of a beam turned alike
        readouts = singlet_meter_raw(held(intensities, rotated, 1), meter)[:, 0]
        assert np.all(np.abs(readouts - base_readout) < 1e-12)
        assert np.all(np.abs(mixture_dop_many(rotated, intensities) - base_dop) < 1e-12)
