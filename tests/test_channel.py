import math

import numpy as np
import pytest
from scipy import stats

from dopsim.channel import ChannelSettings, evolve_window, fiber_trace
from dopsim.polcore import InvariantError
from dopsim.sources import SPEED_OF_LIGHT_M_PER_S
from helpers import random_poincare, random_unit_vector
from oracles import (
    FiberState,
    PoincareVector,
    SourceSpec,
    SpectralLine,
    angle_preservation_error,
    apply_fiber,
    apply_pmd,
    density_from_poincare,
    poincare_angle,
    source_dop,
    two_laser_source,
)


def make_two_line(m1=None, m2=None, i1=1.0, i2=1.0):
    m1 = m1 if m1 is not None else PoincareVector(0, 0, 1)
    m2 = m2 if m2 is not None else PoincareVector(1, 0, 0)
    return two_laser_source(1552.0, 1554.0, i1, i2, m1, m2)


def through_fiber(src, axis, retardance):
    """The lines' Poincare vectors (L, 3) behind one fiber state, referenced at 1552 nm."""
    lines = np.array([line.poincare().as_array() for line in src.lines])
    return fiber_trace(src.wavelengths_nm(), lines, np.array([axis], dtype=float), np.array([retardance]), 1552.0)[0]


class TestApplyFiber:
    def test_zero_retardance_is_identity(self):
        src = make_two_line()
        out = through_fiber(src, (1, 0, 0), 0.0)
        np.testing.assert_allclose(out, [line.poincare().as_array() for line in src.lines], atol=1e-15)

    def test_full_turn_at_reference_wavelength(self):
        src = SourceSpec((SpectralLine(1552.0, 1.0, density_from_poincare(PoincareVector(0, 0, 1))),))
        out = through_fiber(src, (1, 0, 0), 2 * math.pi)
        np.testing.assert_allclose(out[0], [0, 0, 1], atol=1e-12)

    def test_retardance_difference_across_lines(self):
        # both lines start at (0, 0, 1) and turn about (1, 0, 0) in the (2, 3) plane
        src = make_two_line(PoincareVector(0, 0, 1), PoincareVector(0, 0, 1))
        out = through_fiber(src, (1, 0, 0), 1.0)
        delta = abs(math.atan2(out[0, 1], out[0, 2]) - math.atan2(out[1, 1], out[1, 2]))
        assert abs(delta - (1.0 - 1552.0 / 1554.0)) < 1e-15
        assert abs(delta - 1.3e-3) < 1e-4

    def test_preserves_norm(self):
        rng = np.random.default_rng(211)
        src = make_two_line(random_poincare(rng, pure=True), random_poincare(rng, pure=True), 0.7, 1.3)
        for line, out in zip(src.lines, through_fiber(src, random_unit_vector(rng), 2.3)):
            assert abs(line.poincare().norm() - np.linalg.norm(out)) < 1e-12

    def test_composition_about_one_axis(self):
        rng = np.random.default_rng(223)
        axis = tuple(random_unit_vector(rng))
        src = make_two_line(random_poincare(rng, pure=True), random_poincare(rng, pure=True))
        first = through_fiber(src, axis, 0.8)
        one = through_fiber(make_two_line(*first), axis, 0.5)
        both = through_fiber(src, axis, 1.3)
        np.testing.assert_allclose(one, both, atol=1e-12)


class TestEvolve:
    def process(self, **kw):
        base = dict(
            correlation_time_s=0.1,
            axis_diffusion_rad2_per_s=10.0,
            retardance_sigma_rad=0.5,
            retardance_mean_rad=2.0,
        )
        base.update(kw)
        return ChannelSettings(**base)

    def test_frozen_process_is_identity(self):
        proc = self.process(axis_diffusion_rad2_per_s=0.0, retardance_sigma_rad=0.0)
        axes, retardances = evolve_window((0, 0, 1), 1.7, 0.01, 5, proc, np.random.default_rng(0))
        assert axes.tolist() == [[0.0, 0.0, 1.0]] * 5
        assert retardances.tolist() == [1.7] * 5

    def test_same_seed_same_trajectory(self):
        proc = self.process()
        runs = [evolve_window((0, 0, 1), 2.0, 0.01, 200, proc, np.random.default_rng(1)) for _ in range(2)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_axis_stays_unit_norm(self):
        axes, _ = evolve_window((0, 0, 1), 2.0, 0.01, 2000, self.process(), np.random.default_rng(3))
        assert np.all(np.abs(np.linalg.norm(axes, axis=1) - 1.0) < 1e-9)

    def test_stationary_retardance_statistics(self):
        # one million steps at dt = tau/2, in blocks of 2048 chained as the
        # shake runner chains them; subsample every 5 tau for a nearly
        # independent draw from the stationary law
        proc = self.process()
        axis, retardance = (0, 0, 1), proc.retardance_mean_rad
        rng = np.random.default_rng(12345)
        dt = proc.correlation_time_s / 2.0
        n_steps = 1_000_000
        blocks = []
        for start in range(0, n_steps, 2048):
            axes, ret = evolve_window(axis, retardance, dt, min(2048, n_steps - start), proc, rng)
            axis, retardance = tuple(axes[-1].tolist()), float(ret[-1])
            blocks.append(ret)
        retardances = np.concatenate(blocks)

        std = retardances.std()
        assert abs(std - proc.retardance_sigma_rad) / proc.retardance_sigma_rad < 0.05

        subsample = retardances[::10][:100_000]
        result = stats.kstest(
            subsample, "norm", args=(proc.retardance_mean_rad, proc.retardance_sigma_rad)
        )
        assert result.pvalue > 0.01


class TestApplyPmd:
    def test_zero_dgd_is_identity(self):
        src = make_two_line()
        out = apply_pmd(src, 0.0, (1, 0, 0), 1553.0)
        for a, b in zip(src.lines, out.lines):
            np.testing.assert_allclose(a.poincare().as_array(), b.poincare().as_array(), atol=1e-15)

    def _carrier_with_exact_sidebands(self, offset_hz):
        carrier_nm = 1550.0
        nu0 = SPEED_OF_LIGHT_M_PER_S / (carrier_nm * 1e-9)
        m = density_from_poincare(PoincareVector(0, 0, 1))
        lines = tuple(
            SpectralLine(SPEED_OF_LIGHT_M_PER_S / nu * 1e9, w, m)
            for nu, w in sorted(
                [(nu0 - offset_hz, 0.25), (nu0, 0.5), (nu0 + offset_hz, 0.25)], reverse=True
            )
        )
        return carrier_nm, SourceSpec(lines)

    def test_carrier_line_unchanged(self):
        carrier_nm, src = self._carrier_with_exact_sidebands(1e11)
        out = apply_pmd(src, 3e-12, (1, 0, 0), carrier_nm)
        np.testing.assert_allclose(out.lines[1].poincare().as_array(), [0, 0, 1], atol=1e-9)

    def test_sidebands_at_half_period_reach_antipode(self):
        # 100 GHz offsets with 5 ps of DGD: rotation angles -/+ pi
        carrier_nm, src = self._carrier_with_exact_sidebands(1e11)
        out = apply_pmd(src, 5e-12, (1, 0, 0), carrier_nm)
        np.testing.assert_allclose(out.lines[0].poincare().as_array(), [0, 0, -1], atol=1e-9)
        np.testing.assert_allclose(out.lines[2].poincare().as_array(), [0, 0, -1], atol=1e-9)


class TestAnglePreservation:
    def test_zero_retardance(self):
        src = make_two_line()
        assert angle_preservation_error(src, FiberState((0, 1, 0), 0.0, 1552.0)) == 0.0

    def test_near_coincident_wavelengths(self):
        m1, m2 = PoincareVector(0, 0, 1), PoincareVector(1, 0, 0)
        src = two_laser_source(1552.0, 1552.0 + 1e-6, 1, 1, m1, m2)
        err = angle_preservation_error(src, FiberState((0, 1, 0), 3.0, 1552.0))
        assert err < 1e-8

    def test_bounded_over_random_axes(self):
        rng = np.random.default_rng(227)
        src = make_two_line()
        worst = 0.0
        for _ in range(1000):
            fiber = FiberState(tuple(random_unit_vector(rng)), rng.uniform(0, 1.0), 1552.0)
            worst = max(worst, angle_preservation_error(src, fiber))
        assert worst < 2e-3

    def test_rejects_non_two_line_source(self):
        m = density_from_poincare(PoincareVector(0, 0, 1))
        src = SourceSpec((SpectralLine(1552.0, 1.0, m),))
        with pytest.raises(InvariantError):
            angle_preservation_error(src, FiberState((0, 1, 0), 1.0, 1552.0))

    def test_dop_change_within_propagated_bound(self):
        rng = np.random.default_rng(229)
        m1, m2 = PoincareVector(0, 0, 1), PoincareVector(1, 0, 0)
        src = make_two_line(m1, m2)
        two_phi = poincare_angle(m1, m2)
        before = source_dop(src)
        for _ in range(100):
            fiber = FiberState(tuple(random_unit_vector(rng)), rng.uniform(0, 1.0), 1552.0)
            err = angle_preservation_error(src, fiber)
            after = source_dop(apply_fiber(src, fiber))
            # |d DOP| <= |sin(2phi)| * |d 2phi| / (2 DOP) for balanced lines
            bound = abs(math.sin(two_phi)) * err / (2.0 * before) + 1e-12
            assert abs(after - before) <= bound
