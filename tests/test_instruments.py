import math

import numpy as np
import pytest

from dopsim.channel import FiberState
from dopsim.instruments import (
    CrystalStack,
    MeterConfig,
    PolarimeterConfig,
    PolarizationTrace,
    acceptance_bandwidth,
    calibrate_from_references,
    degenerate_contamination,
    effective_length,
    invert_meter_readout,
    mc_pair_singlet,
    pair_table,
    pair_projection_probability,
    polarimeter_dop,
    singlet_meter_raw,
    two_stage_projector,
)
from dopsim.polcore import InvariantError, NumericsError, brute_force_trace, mixture_dop_many
from helpers import random_poincare, random_unit_vector
from oracles import (
    PoincareVector,
    SourceSpec,
    SpectralLine,
    apply_fiber,
    density_from_poincare,
    great_circle_pair,
    mean_contamination,
    pair_normalization,
    rotate_poincare,
    singlet_meter_dop,
    source_dop,
    static_trace,
    trace_from_snapshots,
    two_laser_source,
)

IDEAL = MeterConfig(visibility=1.0)


def two_line_trace(two_phi_deg, i1=1.0, i2=1.0, n=1, dt=1.0, circle=0):
    m1, m2 = great_circle_pair(circle, 0.0, two_phi_deg)
    src = two_laser_source(1552.0, 1554.0, i1, i2, m1, m2)
    return static_trace(src, n, dt), src


class TestCrystalArithmetic:
    def test_effective_length_four_elements(self):
        assert effective_length(CrystalStack(3.0, 4)) == 12.0

    def test_effective_length_single_element(self):
        assert effective_length(CrystalStack(3.0, 1)) == 3.0

    def test_effective_length_scales_linearly(self):
        assert effective_length(CrystalStack(3.0, 8)) == 24.0

    def test_acceptance_at_reference(self):
        assert acceptance_bandwidth(CrystalStack(3.0, 4)) == 4.5

    def test_acceptance_short_stack(self):
        assert acceptance_bandwidth(CrystalStack(3.0, 1)) == 18.0

    def test_acceptance_long_stack(self):
        assert acceptance_bandwidth(CrystalStack(3.0, 8)) == 2.25

    def test_two_stage_design_is_fixed(self):
        with pytest.raises(InvariantError):
            CrystalStack(3.0, 4, stages=3)


class TestDegenerateContamination:
    def test_suppressed_regime(self):
        c = degenerate_contamination(1552.0, 1554.0, CrystalStack())
        assert 0.0 < c < 0.5

    def test_near_degenerate_limit(self):
        c = degenerate_contamination(1550.0, 1550.0 + 1e-9, CrystalStack())
        assert abs(c - 1.0) < 1e-12

    def test_far_tail(self):
        assert degenerate_contamination(1540.0, 1560.0, CrystalStack()) < 0.01

    def test_equal_wavelengths_rejected(self):
        with pytest.raises(InvariantError):
            degenerate_contamination(1550.0, 1550.0, CrystalStack())


class TestTwoStageProjector:
    def test_destructive_phase_is_singlet(self):
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(two_stage_projector(0.0), np.outer(psi, psi), atol=1e-15)

    def test_hermitian_and_read_only(self):
        op = two_stage_projector(0.7)
        np.testing.assert_allclose(op, op.conj().T, atol=1e-15)
        with pytest.raises(ValueError):
            op[0, 0] = 1.0

    def test_probability_formula_matches_trace(self):
        rng = np.random.default_rng(311)
        for _ in range(100):
            a, b = random_poincare(rng), random_poincare(rng)
            phase = rng.uniform(0, 2 * math.pi)
            expected = brute_force_trace(a, b, two_stage_projector(phase))
            assert abs(float(pair_projection_probability(a, b, phase)) - expected) < 1e-12


class TestSingletMeterRaw:
    def test_batch_reads_each_beam_alone(self):
        # time-varying beams of one line set; a 4-sample response window and
        # noise: each row equals that beam read alone, in beam order
        rng = np.random.default_rng(61)
        mvecs = np.array([random_poincare(rng) for _ in range(3 * 9 * 3)]).reshape(3, 9, 3, 3)
        intensities = rng.uniform(0.0, 2.0, size=(3, 9, 3))
        wavelengths = np.array([1550.0, 1551.0, 1553.0])
        cfg = MeterConfig(visibility=0.9, noise_sigma_rel=0.1, response_time_s=4.0, min_separation_nm=1.5)
        batch = singlet_meter_raw(
            PolarizationTrace(1.0, wavelengths, intensities, mvecs), cfg, np.random.default_rng(5)
        )
        alone = np.random.default_rng(5)
        expected = [
            singlet_meter_raw(PolarizationTrace(1.0, wavelengths, i, m), cfg, alone)
            for i, m in zip(intensities, mvecs)
        ]
        assert batch.shape == (3, 9)
        assert np.array_equal(batch, np.array(expected))

    def test_polarized_beam_reads_zero_when_ideal(self):
        trace, _ = two_line_trace(0.0, n=4)
        np.testing.assert_allclose(singlet_meter_raw(trace, IDEAL), 0.0, atol=1e-15)

    def test_depolarized_beam_reads_half(self):
        trace, _ = two_line_trace(180.0, n=4)
        np.testing.assert_allclose(singlet_meter_raw(trace, IDEAL), 0.5, atol=1e-12)

    def test_visibility_residual(self):
        trace, _ = two_line_trace(0.0)
        r = singlet_meter_raw(trace, MeterConfig(visibility=0.96))
        np.testing.assert_allclose(r, 0.02, atol=1e-15)

    def test_single_line_rejected(self):
        src = SourceSpec((SpectralLine(1552.0, 1.0, density_from_poincare(PoincareVector(0, 0, 1))),))
        with pytest.raises(InvariantError):
            singlet_meter_raw(static_trace(src, 1, 1.0), IDEAL)

    def test_empty_trace_rejected(self):
        with pytest.raises(InvariantError, match="at least one sample"):
            PolarizationTrace(1.0, np.array([1552.0]), np.empty((0, 1)), np.empty((0, 1, 3)))

    def test_noise_requires_rng(self):
        trace, _ = two_line_trace(90.0)
        with pytest.raises(InvariantError):
            singlet_meter_raw(trace, MeterConfig(visibility=1.0, noise_sigma_rel=0.1))

    def test_linear_in_one_minus_dop_squared(self):
        readouts, predictors = [], []
        for two_phi in np.linspace(0.0, 180.0, 13):
            trace, src = two_line_trace(float(two_phi), i1=1.3, i2=0.6)
            readouts.append(singlet_meter_raw(trace, IDEAL)[0])
            predictors.append(1.0 - source_dop(src) ** 2)
        coeffs = np.polyfit(predictors, readouts, 1)
        residuals = np.polyval(coeffs, predictors) - readouts
        assert np.max(np.abs(residuals)) < 1e-9 * max(readouts)

    def test_global_rotation_invariance(self):
        rng = np.random.default_rng(313)
        trace, src = two_line_trace(73.0, i1=0.8, i2=1.7)
        base = singlet_meter_raw(trace, IDEAL)[0]
        for _ in range(25):
            axis, angle = random_unit_vector(rng), rng.uniform(0, 2 * math.pi)
            rotated = SourceSpec(
                tuple(
                    SpectralLine(
                        line.wavelength_nm,
                        line.intensity,
                        density_from_poincare(rotate_poincare(line.poincare(), axis, angle)),
                    )
                    for line in src.lines
                )
            )
            r = singlet_meter_raw(static_trace(rotated, 1, 1.0), IDEAL)[0]
            assert abs(r - base) < 1e-12

    def test_response_window_premixes_states(self):
        up = density_from_poincare(PoincareVector(0, 0, 1))
        down = density_from_poincare(PoincareVector(0, 0, -1))
        snap_a = SourceSpec((SpectralLine(1552.0, 1, up), SpectralLine(1554.0, 1, up)))
        snap_b = SourceSpec((SpectralLine(1552.0, 1, up), SpectralLine(1554.0, 1, down)))
        trace = trace_from_snapshots(1.0, (snap_a, snap_b))
        instant = singlet_meter_raw(trace, IDEAL)
        np.testing.assert_allclose(instant, [0.0, 0.5], atol=1e-15)
        averaged = singlet_meter_raw(trace, MeterConfig(visibility=1.0, response_time_s=2.0))
        np.testing.assert_allclose(averaged, [0.0, 0.25], atol=1e-15)

    def test_contaminated_pair_mixes_toward_quarter(self):
        # 0.8 nm separation sits below the minimum separation: the undesired
        # degenerate conversion pulls the polarized-beam readout off zero
        m = PoincareVector(0, 0, 1)
        src = two_laser_source(1552.0, 1552.8, 1, 1, m, m)
        trace = static_trace(src, 1, 1.0)
        c = degenerate_contamination(1552.0, 1552.8, CrystalStack())
        r = singlet_meter_raw(trace, IDEAL)[0]
        assert abs(r - c / 4.0) < 1e-12


class TestSingletMeterDop:
    def test_round_trip_static_balanced(self):
        trace, src = two_line_trace(90.0, n=3)
        est = singlet_meter_dop(trace, IDEAL)
        np.testing.assert_allclose(est.dop, source_dop(src), atol=1e-9)
        assert not est.clipped.any()

    def test_round_trip_with_imperfections(self):
        cfg = MeterConfig(visibility=0.93, gain=2.7, dark_offset=0.11)
        for two_phi in (0.0, 35.0, 90.0, 140.0, 180.0):
            trace, src = two_line_trace(two_phi, i1=1.4, i2=0.7)
            est = singlet_meter_dop(trace, cfg)
            np.testing.assert_allclose(est.dop, source_dop(src), atol=1e-9)

    def test_round_trip_contaminated_two_line(self):
        cfg = MeterConfig(visibility=0.9, gain=1.5, dark_offset=0.05)
        m1, m2 = great_circle_pair(2, 20.0, 75.0)
        src = two_laser_source(1552.0, 1552.9, 1.0, 0.8, m1, m2)
        trace = static_trace(src, 2, 1.0)
        est = singlet_meter_dop(trace, cfg)
        np.testing.assert_allclose(est.dop, source_dop(src), atol=1e-9)

    def test_readout_at_dark_reads_full_polarization(self):
        cfg = MeterConfig(visibility=0.96, dark_offset=0.2)
        est = invert_meter_readout(np.array([0.2]), cfg, pair_table((1552.0, 1554.0), (1.0, 1.0), cfg))
        assert est.dop[0] == 1.0
        assert est.clipped[0]

    def test_below_dark_floor_flags_not_raises(self):
        est = invert_meter_readout(np.array([-0.05]), IDEAL, pair_table((1552.0, 1554.0), (1.0, 1.0), IDEAL))
        assert est.dop[0] == 1.0
        assert est.clipped[0]

    def test_scrambled_trace_with_preserved_angle_is_constant(self):
        rng = np.random.default_rng(331)
        m1, m2 = great_circle_pair(0, 0.0, 90.0)
        snapshots = []
        for _ in range(64):
            axis, angle = random_unit_vector(rng), rng.uniform(0, 2 * math.pi)
            snapshots.append(
                two_laser_source(
                    1552.0, 1554.0, 1, 1,
                    rotate_poincare(m1, axis, angle), rotate_poincare(m2, axis, angle),
                )
            )
        trace = trace_from_snapshots(1.0, tuple(snapshots))
        est = singlet_meter_dop(trace, IDEAL)
        np.testing.assert_allclose(est.dop, math.sqrt(0.5), atol=1e-6)

    def test_batch_rejected(self):
        _, src = two_line_trace(30.0)
        beams = np.array([[line.poincare().as_array() for line in src.lines]] * 2)
        trace = PolarizationTrace.held(0.1, src.wavelengths_nm(), src.intensities(), beams, 10)
        with pytest.raises(InvariantError, match="batch"):
            singlet_meter_dop(trace, IDEAL)


def window_loop_polarimeter(trace, cfg, rng):
    """One beam's polarimeter DOP, one integration window at a time: the
    Stokes means per window, noise, then np.linalg.norm(S123) / S0."""
    window = int(round(cfg.integration_time_s / trace.dt_s))
    s0 = trace.intensities.sum(axis=1)
    svec = (trace.intensities[:, :, None] * trace.poincare).sum(axis=1)
    out = []
    for w in range(len(trace) // window):
        sl = slice(w * window, (w + 1) * window)
        stokes = np.array([s0[sl].mean(), *svec[sl].mean(axis=0)])
        if cfg.noise_sigma_rel > 0.0:
            stokes = stokes * (1.0 + cfg.noise_sigma_rel * rng.standard_normal(4))
        out.append(float(np.linalg.norm(stokes[1:]) / stokes[0]))
    return np.array(out)


class TestPolarimeter:
    def test_batch_reads_each_beam_alone(self):
        # time-varying beams of one line set: each row equals that beam read
        # alone, in beam order, noise draws included.  Cases: several windows
        # per beam with trailing samples left over, windows long enough for
        # numpy's pairwise summation, and one window filling the trace.
        rng = np.random.default_rng(67)
        wavelengths = np.array([1550.0, 1551.0, 1553.0])
        for n, window, noise in [(23, 5, 0.05), (23, 5, 0.0), (307, 150, 0.05), (9, 9, 0.05)]:
            mvecs = np.array([random_poincare(rng) for _ in range(3 * n * 3)]).reshape(3, n, 3, 3)
            intensities = rng.uniform(0.1, 2.0, size=(3, n, 3))
            cfg = PolarimeterConfig(integration_time_s=window * 0.01, noise_sigma_rel=noise)
            batch = polarimeter_dop(
                PolarizationTrace(0.01, wavelengths, intensities, mvecs), cfg, np.random.default_rng(7)
            )
            alone = np.random.default_rng(7)
            expected = [
                polarimeter_dop(PolarizationTrace(0.01, wavelengths, i, m), cfg, alone)
                for i, m in zip(intensities, mvecs)
            ]
            assert batch.shape == (3, n // window)
            assert np.array_equal(batch, np.array(expected))
            alone = np.random.default_rng(7)
            for row, i, m in zip(batch, intensities, mvecs):
                beam = PolarizationTrace(0.01, wavelengths, i, m)
                assert np.array_equal(row, window_loop_polarimeter(beam, cfg, alone))

    def test_static_trace_exact(self):
        trace, src = two_line_trace(67.0, i1=1.1, i2=0.4, n=10, dt=0.1)
        out = polarimeter_dop(trace, PolarimeterConfig(integration_time_s=1.0))
        np.testing.assert_allclose(out, source_dop(src), atol=1e-12)

    def test_great_circle_coverage_reads_zero(self):
        n = 360
        snapshots = []
        for k in range(n):
            angle = 2 * math.pi * k / n
            m = PoincareVector(math.cos(angle), math.sin(angle), 0.0)
            snapshots.append(SourceSpec((SpectralLine(1550.0, 1.0, density_from_poincare(m)),)))
        trace = trace_from_snapshots(0.01, tuple(snapshots))
        out = polarimeter_dop(trace, PolarimeterConfig(integration_time_s=3.6))
        assert out[0] < 1e-10

    def test_two_windows_constant_state_identical(self):
        trace, _ = two_line_trace(45.0, n=20, dt=0.1)
        out = polarimeter_dop(trace, PolarimeterConfig(integration_time_s=1.0))
        assert len(out) == 2
        assert out[0] == out[1]

    def test_short_trace_rejected(self):
        trace, _ = two_line_trace(45.0, n=5, dt=0.1)
        with pytest.raises(InvariantError):
            polarimeter_dop(trace, PolarimeterConfig(integration_time_s=1.0))

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_overflowing_stokes_magnitude_raises(self, noise):
        # |S123|^2 overflows in the norm: a NumericsError, not an inf DOP
        trace, _ = two_line_trace(45.0, i1=1e300, i2=1e300, n=10, dt=0.1)
        cfg = PolarimeterConfig(integration_time_s=1.0, noise_sigma_rel=noise)
        with pytest.raises(NumericsError, match="not finite"):
            polarimeter_dop(trace, cfg, np.random.default_rng(1))

    def test_noiseless_dop_above_one_raises(self):
        # Poincare vectors twice the unit length read DOP 2
        trace = PolarizationTrace(0.1, np.array([1550.0]), np.ones((10, 1)), np.tile([0.0, 0.0, 2.0], (10, 1, 1)))
        with pytest.raises(NumericsError, match="above 1"):
            polarimeter_dop(trace, PolarimeterConfig(integration_time_s=1.0))

    def test_never_above_meter_on_constant_dop_traces(self):
        rng = np.random.default_rng(337)
        for trial in range(10):
            m1, m2 = great_circle_pair(trial % 3, 10.0 * trial, 30.0 + 12.0 * trial)
            snapshots = []
            for _ in range(50):
                axis, angle = random_unit_vector(rng), rng.uniform(0, 2 * math.pi)
                snapshots.append(
                    two_laser_source(
                        1552.0, 1554.0, 1.2, 0.9,
                        rotate_poincare(m1, axis, angle), rotate_poincare(m2, axis, angle),
                    )
                )
            trace = trace_from_snapshots(0.02, tuple(snapshots))
            meter = float(
                invert_meter_readout(
                    np.array([singlet_meter_raw(trace, IDEAL).mean()]),
                    IDEAL,
                    pair_table(trace.wavelengths, trace.intensities[0], IDEAL),
                ).dop[0]
            )
            pol = polarimeter_dop(trace, PolarimeterConfig(integration_time_s=1.0))[0]
            assert pol <= meter + 1e-9


class TestPairSampling:
    def test_matches_mixture_law_within_three_sigma(self):
        rng = np.random.default_rng(341)
        for seed in range(5):
            i1, i2 = rng.uniform(0.2, 3.0, size=2)
            lines = np.array([random_poincare(rng, pure=True), random_poincare(rng, pure=True)])
            expected = (1.0 - mixture_dop_many(lines[None], [i1, i2])[0] ** 2) / 4.0
            result = mc_pair_singlet([i1, i2], lines, 1_000_000, np.random.default_rng(1000 + seed))
            assert abs(result.estimate - expected) <= 3.0 * result.stderr

    def test_pair_normalization_two_lines(self):
        assert abs(pair_table((1552.0, 1554.0), (1.0, 1.0), IDEAL).k - 0.5) < 1e-15
        assert abs(pair_table((1552.0, 1554.0), (3.0, 1.0), IDEAL).k - 2 * 3 / 16) < 1e-15

    def test_table_constants_equal_the_per_call_formulas(self):
        # two- and three-line sets, lines 0.05 to 4 nm apart: within and
        # beyond the acceptance, some below the minimum separation
        rng = np.random.default_rng(353)
        contaminated = 0
        for _ in range(2000):
            n_lines = int(rng.integers(2, 4))
            wavelengths = 1550.0 + np.cumsum(rng.uniform(0.05, 4.0, size=n_lines))
            intensities = tuple(rng.uniform(0.05, 3.0, size=n_lines).tolist())
            table = pair_table(wavelengths, intensities, IDEAL)
            assert table.k == pair_normalization(intensities)
            if table.pairs:
                assert table.c_bar == mean_contamination(table.pairs, intensities)
                contaminated += table.c_bar > 0.0
        assert contaminated > 100

    def test_deterministic_under_seed(self):
        lines = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        a = mc_pair_singlet([1.0, 1.0], lines, 10_000, np.random.default_rng(5))
        b = mc_pair_singlet([1.0, 1.0], lines, 10_000, np.random.default_rng(5))
        assert a.estimate == b.estimate


class TestCalibration:
    def test_recovers_gain_and_dark_noiselessly(self):
        cfg = MeterConfig(visibility=0.91, gain=3.3, dark_offset=0.21)
        trace1, _ = two_line_trace(0.0)
        trace0, _ = two_line_trace(180.0)
        r1 = float(singlet_meter_raw(trace1, cfg)[0])
        r0 = float(singlet_meter_raw(trace0, cfg)[0])
        gain, dark = calibrate_from_references(r1, r0, cfg.visibility)
        assert abs(gain - cfg.gain) < 1e-12
        assert abs(dark - cfg.dark_offset) < 1e-12

    def test_rejects_non_separating_references(self):
        with pytest.raises(Exception):
            calibrate_from_references(0.5, 0.5, 0.96)


class TestFiberScrambledOrdering:
    def test_fiber_scramble_preserves_meter_not_polarimeter(self):
        rng = np.random.default_rng(347)
        m1, m2 = great_circle_pair(0, 0.0, 0.0)
        src = two_laser_source(1552.0, 1554.0, 1, 1, m1, m2)
        snapshots = []
        for _ in range(200):
            axis = tuple(random_unit_vector(rng))
            fiber = FiberState(axis, rng.normal(2.5, 0.5), 1552.0)
            snapshots.append(apply_fiber(src, fiber))
        trace = trace_from_snapshots(0.05, tuple(snapshots))
        meter = invert_meter_readout(
            np.array([singlet_meter_raw(trace, IDEAL).mean()]),
            IDEAL,
            pair_table(trace.wavelengths, (1.0, 1.0), IDEAL),
        ).dop[0]
        pol = polarimeter_dop(trace, PolarimeterConfig(integration_time_s=10.0))[0]
        assert meter > 0.99
        assert pol < 0.7
