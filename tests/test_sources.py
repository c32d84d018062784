import math

import numpy as np
import pytest

from dopsim.polcore import InvariantError, PoincareVector, poincare_angle, rotate_poincare
from dopsim.sources import (
    dop_two_pure_lines,
    great_circle_pair,
    great_circle_states,
    modulated_carrier_source,
    modulation_wavelength_offset_nm,
    source_dop,
    two_laser_source,
)
from helpers import random_poincare, random_unit_vector


def rotated_source(src, axis, angle):
    """Rebuild a source with every line state rotated by one global rotation."""
    from dopsim.polcore import density_from_poincare
    from dopsim.sources import SourceSpec, SpectralLine

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


class TestTwoLaserSource:
    def test_parallel_lines_full_dop(self):
        src = two_laser_source(1552, 1554, 1, 1, PoincareVector(0, 0, 1), PoincareVector(0, 0, 1))
        assert abs(source_dop(src) - 1.0) < 1e-12

    def test_antiparallel_balanced_zero_dop(self):
        src = two_laser_source(1552, 1554, 1, 1, PoincareVector(0, 0, 1), PoincareVector(0, 0, -1))
        assert source_dop(src) < 1e-12

    def test_single_effective_line(self):
        src = two_laser_source(1552, 1554, 1, 0, PoincareVector(0, 0, 1), PoincareVector(1, 0, 0))
        assert abs(source_dop(src) - 1.0) < 1e-12

    def test_rejects_equal_wavelengths(self):
        with pytest.raises(InvariantError):
            two_laser_source(1552, 1552, 1, 1, PoincareVector(0, 0, 1), PoincareVector(0, 0, 1))

    def test_rejects_impure_line(self):
        with pytest.raises(InvariantError):
            two_laser_source(1552, 1554, 1, 1, PoincareVector(0, 0, 0.5), PoincareVector(0, 0, 1))

    def test_orders_lines_by_wavelength(self):
        src = two_laser_source(1554, 1552, 1, 2, PoincareVector(0, 0, 1), PoincareVector(1, 0, 0))
        assert src.wavelengths_nm() == (1552, 1554)
        assert src.intensities() == (2, 1)


class TestSourceDop:
    def test_balanced_right_angle(self):
        m1, m2 = great_circle_pair(0, 0.0, 90.0)
        src = two_laser_source(1552, 1554, 1, 1, m1, m2)
        assert abs(source_dop(src) - math.sqrt(0.5)) < 1e-12
        assert abs(dop_two_pure_lines(1, 1, math.pi / 2) - math.sqrt(0.5)) < 1e-12

    def test_zero_angle_any_intensities(self):
        assert abs(dop_two_pure_lines(3.7, 0.2, 0.0) - 1.0) < 1e-15

    def test_balanced_antipodal(self):
        assert dop_two_pure_lines(1, 1, math.pi) < 1e-15

    def test_unbalanced_antipodal(self):
        # |3 - 1| / 4 via the mixture vector; closed form sqrt(16 - 12)/4
        m1, m2 = great_circle_pair(1, 30.0, 180.0)
        src = two_laser_source(1552, 1554, 3, 1, m1, m2)
        assert abs(source_dop(src) - 0.5) < 1e-12
        assert abs(dop_two_pure_lines(3, 1, math.pi) - 0.5) < 1e-12

    def test_closed_form_equals_mixture_sweep(self):
        # the module's central correctness theorem
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(10_000):
            i1, i2 = rng.uniform(0.01, 10.0, size=2)
            m1 = random_poincare(rng, pure=True)
            m2 = random_poincare(rng, pure=True)
            src = two_laser_source(1552, 1554, i1, i2, m1, m2)
            closed = dop_two_pure_lines(i1, i2, poincare_angle(m1, m2))
            worst = max(worst, abs(source_dop(src) - closed))
        assert worst < 1e-12

    def test_global_rotation_invariance(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            src = two_laser_source(
                1552, 1554, rng.uniform(0.1, 2), rng.uniform(0.1, 2),
                random_poincare(rng, pure=True), random_poincare(rng, pure=True),
            )
            rot = rotated_source(src, random_unit_vector(rng), rng.uniform(0, 2 * math.pi))
            assert abs(source_dop(rot) - source_dop(src)) < 1e-12

    def test_intensity_scale_invariance(self):
        rng = np.random.default_rng(107)
        m1, m2 = random_poincare(rng, pure=True), random_poincare(rng, pure=True)
        a = two_laser_source(1552, 1554, 0.3, 0.7, m1, m2)
        b = two_laser_source(1552, 1554, 0.3 * 55, 0.7 * 55, m1, m2)
        assert abs(source_dop(a) - source_dop(b)) < 1e-12


class TestModulatedCarrier:
    def test_terahertz_offset_about_8nm(self):
        offset = modulation_wavelength_offset_nm(1550.0, 1e12)
        assert abs(offset - 8.0) / 8.0 < 0.02

    def test_gigahertz_offset_about_8pm(self):
        offset = modulation_wavelength_offset_nm(1550.0, 1e9)
        assert abs(offset - 8.0e-3) / 8.0e-3 < 0.02

    def test_copolarized_lines_full_dop(self):
        m = PoincareVector(0, 0, 1)
        src = modulated_carrier_source(1550.0, 10e9, m, m, m)
        assert abs(source_dop(src) - 1.0) < 1e-12
        assert len(src.lines) == 3

    def test_offset_scaling_laws(self):
        base = modulation_wavelength_offset_nm(1550.0, 1e10)
        assert abs(modulation_wavelength_offset_nm(1550.0, 3e10) / base - 3.0) < 1e-12
        assert abs(modulation_wavelength_offset_nm(3100.0, 1e10) / base - 4.0) < 1e-12

    def test_zero_bitrate_rejected(self):
        m = PoincareVector(0, 0, 1)
        with pytest.raises(InvariantError):
            modulated_carrier_source(1550.0, 0.0, m, m, m)


class TestGreatCircles:
    def test_five_states_by_40_degrees(self):
        states = great_circle_states(0, 5, 40.0)
        assert len(states) == 5
        expected_angles = [0, 40, 80, 120, 160]
        for state, deg in zip(states, expected_angles):
            np.testing.assert_allclose(
                state.as_array(),
                [math.cos(math.radians(deg)), math.sin(math.radians(deg)), 0.0],
                atol=1e-12,
            )

    def test_full_turn_step_repeats(self):
        states = great_circle_states(1, 4, 360.0)
        for state in states[1:]:
            np.testing.assert_allclose(state.as_array(), states[0].as_array(), atol=1e-9)

    def test_all_unit_norm(self):
        for circle in (0, 1, 2):
            for state in great_circle_states(circle, 9, 40.0):
                assert abs(state.norm() - 1.0) < 1e-12

    def test_circle_planes_are_orthogonal(self):
        # consecutive-state separation equals the step on every circle
        for circle in (0, 1, 2):
            a, b = great_circle_pair(circle, 12.0, 25.0)
            assert abs(math.degrees(poincare_angle(a, b)) - 25.0) < 1e-9

    def test_bad_circle_index(self):
        with pytest.raises(InvariantError):
            great_circle_states(3, 5, 40.0)
