import math

import numpy as np
import pytest
from scipy import stats

from dopsim.channel import (
    FiberState,
    FluctuationProcess,
    PmdElement,
    angle_preservation_error,
    apply_fiber,
    apply_pmd,
    evolve,
)
from dopsim.polcore import InvariantError, PoincareVector, density_from_poincare, poincare_angle
from dopsim.sources import (
    SPEED_OF_LIGHT_M_PER_S,
    SourceSpec,
    SpectralLine,
    source_dop,
    two_laser_source,
)
from helpers import random_poincare, random_unit_vector


def make_two_line(m1=None, m2=None, i1=1.0, i2=1.0):
    m1 = m1 if m1 is not None else PoincareVector(0, 0, 1)
    m2 = m2 if m2 is not None else PoincareVector(1, 0, 0)
    return two_laser_source(1552.0, 1554.0, i1, i2, m1, m2)


class TestApplyFiber:
    def test_zero_retardance_is_identity(self):
        src = make_two_line()
        out = apply_fiber(src, FiberState((1, 0, 0), 0.0, 1552.0))
        for a, b in zip(src.lines, out.lines):
            np.testing.assert_allclose(a.poincare().as_array(), b.poincare().as_array(), atol=1e-15)

    def test_full_turn_at_reference_wavelength(self):
        src = SourceSpec((SpectralLine(1552.0, 1.0, density_from_poincare(PoincareVector(0, 0, 1))),))
        out = apply_fiber(src, FiberState((1, 0, 0), 2 * math.pi, 1552.0))
        np.testing.assert_allclose(
            out.lines[0].poincare().as_array(), [0, 0, 1], atol=1e-12
        )

    def test_retardance_difference_across_lines(self):
        fiber = FiberState((1, 0, 0), 1.0, 1552.0)
        delta = abs(fiber.retardance_at(1552.0) - fiber.retardance_at(1554.0))
        assert abs(delta - (1.0 - 1552.0 / 1554.0)) < 1e-15
        assert abs(delta - 1.3e-3) < 1e-4

    def test_preserves_norm_and_intensity(self):
        rng = np.random.default_rng(211)
        src = make_two_line(random_poincare(rng, pure=True), random_poincare(rng, pure=True), 0.7, 1.3)
        out = apply_fiber(src, FiberState(tuple(random_unit_vector(rng)), 2.3, 1552.0))
        assert out.intensities() == src.intensities()
        for a, b in zip(src.lines, out.lines):
            assert abs(a.poincare().norm() - b.poincare().norm()) < 1e-12

    def test_composition_about_one_axis(self):
        rng = np.random.default_rng(223)
        axis = tuple(random_unit_vector(rng))
        src = make_two_line(random_poincare(rng, pure=True), random_poincare(rng, pure=True))
        one = apply_fiber(apply_fiber(src, FiberState(axis, 0.8, 1552.0)), FiberState(axis, 0.5, 1552.0))
        both = apply_fiber(src, FiberState(axis, 1.3, 1552.0))
        for a, b in zip(one.lines, both.lines):
            np.testing.assert_allclose(a.poincare().as_array(), b.poincare().as_array(), atol=1e-12)


class TestEvolve:
    def process(self, **kw):
        base = dict(
            correlation_time_s=0.1,
            axis_diffusion_rad2_per_s=10.0,
            retardance_sigma_rad=0.5,
            retardance_mean_rad=2.0,
        )
        base.update(kw)
        return FluctuationProcess(**base)

    def test_frozen_process_is_identity(self):
        fiber = FiberState((0, 0, 1), 1.7, 1552.0)
        proc = self.process(axis_diffusion_rad2_per_s=0.0, retardance_sigma_rad=0.0)
        out = evolve(fiber, 0.01, proc, np.random.default_rng(0))
        assert out == fiber

    def test_same_seed_same_trajectory(self):
        fiber = FiberState((0, 0, 1), 2.0, 1552.0)
        proc = self.process()
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(1)
            f = fiber
            traj = []
            for _ in range(200):
                f = evolve(f, 0.01, proc, rng)
                traj.append((f.axis, f.retardance_ref_rad))
            runs.append(traj)
        assert runs[0] == runs[1]

    def test_axis_stays_unit_norm(self):
        fiber = FiberState((0, 0, 1), 2.0, 1552.0)
        proc = self.process()
        rng = np.random.default_rng(3)
        f = fiber
        for _ in range(2000):
            f = evolve(f, 0.01, proc, rng)
            n = math.sqrt(sum(x * x for x in f.axis))
            assert abs(n - 1.0) < 1e-9

    def test_stationary_retardance_statistics(self):
        # one million steps at dt = tau/2; subsample every 5 tau for a nearly
        # independent draw from the stationary law
        proc = self.process()
        fiber = FiberState((0, 0, 1), proc.retardance_mean_rad, 1552.0)
        rng = np.random.default_rng(12345)
        dt = proc.correlation_time_s / 2.0
        n_steps = 1_000_000
        retardances = np.empty(n_steps)
        f = fiber
        for i in range(n_steps):
            f = evolve(f, dt, proc, rng)
            retardances[i] = f.retardance_ref_rad

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
        out = apply_pmd(src, PmdElement(0.0, (1, 0, 0)), 1553.0)
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
        out = apply_pmd(src, PmdElement(3e-12, (1, 0, 0)), carrier_nm)
        np.testing.assert_allclose(out.lines[1].poincare().as_array(), [0, 0, 1], atol=1e-9)

    def test_sidebands_at_half_period_reach_antipode(self):
        # 100 GHz offsets with 5 ps of DGD: rotation angles -/+ pi
        carrier_nm, src = self._carrier_with_exact_sidebands(1e11)
        out = apply_pmd(src, PmdElement(5e-12, (1, 0, 0)), carrier_nm)
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
