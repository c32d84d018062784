import math

import numpy as np
import pytest

from dopsim.instruments import PolarimeterConfig, PolarizationTrace, pair_projection_probability, polarimeter_dop, two_stage_projector
from dopsim.polcore import (
    InvariantError,
    NumericsError,
    UndefinedDirectionError,
    brute_force_trace,
    check_pure_states,
    mixture_dop_many,
    poincare_round_trip,
    rotate_poincare_many,
)
from helpers import random_density, random_poincare, random_unit_vector
from oracles import (
    DensityMatrix,
    PoincareVector,
    density_from_poincare,
    dop,
    mix,
    poincare_angle,
    poincare_from_density,
    rotate_poincare,
    rotation_unitary,
)

SINGLET = two_stage_projector(0.0)


def rotated(m, axis, angle):
    """m (3,) turned about axis by angle through rotate_poincare_many."""
    return rotate_poincare_many([m], [axis], [[angle]])[0, 0]


def one_line_polarimeter_dop(stokes):
    """The noiseless polarimeter's DOP of a one-line beam of Stokes vector
    (s0, s1, s2, s3), held for one window."""
    s0, *s123 = stokes
    m = np.array(s123, dtype=float) / s0 if s0 else np.zeros(3)
    trace = PolarizationTrace(1.0, np.array([1550.0]), np.full((1, 1), float(s0)), m.reshape(1, 1, 3))
    return float(polarimeter_dop(trace, PolarimeterConfig())[0])


class TestDensityFromPoincare:
    def test_fully_mixed(self):
        rho = density_from_poincare(PoincareVector(0, 0, 0))
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-15)

    def test_pure_pole_is_h(self):
        rho = density_from_poincare(PoincareVector(0, 0, 1))
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_partial_linear(self):
        # direct evaluation of (1 + M.sigma)/2 at M = (0.6, 0, 0)
        rho = density_from_poincare(PoincareVector(0.6, 0, 0))
        expected = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_rejects_overlong_vector(self):
        with pytest.raises(InvariantError):
            density_from_poincare([1.0, 1e-5, 0.0])

    def test_pauli_trace_postcondition(self):
        rng = np.random.default_rng(7)
        from dopsim.polcore import PAULI_1, PAULI_2, PAULI_3

        for _ in range(50):
            m = random_poincare(rng)
            rho = density_from_poincare(m).matrix
            for mj, sigma in zip(m, (PAULI_1, PAULI_2, PAULI_3)):
                assert abs(np.trace(rho @ sigma).real - mj) < 1e-12


class TestPoincareFromDensity:
    def test_fully_mixed(self):
        m = poincare_from_density(DensityMatrix(np.diag([0.5, 0.5])))
        assert m.norm() < 1e-15

    def test_pure_diagonal_linear(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))
        m = poincare_from_density(rho)
        np.testing.assert_allclose(m.as_array(), [1.0, 0.0, 0.0], atol=1e-12)

    def test_convex_mix_is_weighted_vector_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ma, mb = random_poincare(rng, pure=True), random_poincare(rng, pure=True)
            w = rng.uniform(0.1, 0.9)
            mixed = mix(
                [density_from_poincare(ma), density_from_poincare(mb)], [w, 1.0 - w]
            )
            expected = w * ma + (1.0 - w) * mb
            np.testing.assert_allclose(
                poincare_from_density(mixed).as_array(), expected, atol=1e-12
            )

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = random_poincare(rng)
            back = poincare_from_density(density_from_poincare(m))
            assert np.max(np.abs(back.as_array() - m)) < 1e-12


class TestDop:
    # the Stokes-vector DOP |S123| / S0, as the polarimeter reads it
    def test_unpolarized_stokes(self):
        assert one_line_polarimeter_dop((1, 0, 0, 0)) == 0.0

    def test_fully_polarized_stokes(self):
        assert one_line_polarimeter_dop((2, 2, 0, 0)) == 1.0

    def test_three_four_five(self):
        assert abs(one_line_polarimeter_dop((1, 0.36, 0.48, 0)) - 0.6) < 1e-15

    def test_zero_intensity_is_undefined(self):
        with pytest.raises(NumericsError, match="non-positive averaged power"):
            one_line_polarimeter_dop((0, 0, 0, 0))

    def test_poincare_input(self):
        assert abs(dop(PoincareVector(0.6, 0, 0)) - 0.6) < 1e-15


class TestMix:
    def test_orthogonal_pure_states_depolarize(self):
        h = density_from_poincare(PoincareVector(0, 0, 1))
        v = density_from_poincare(PoincareVector(0, 0, -1))
        assert dop(poincare_from_density(mix([h, v], [1, 1]))) < 1e-15

    def test_self_mix_is_identity(self):
        rho = random_density(np.random.default_rng(5))
        np.testing.assert_allclose(mix([rho, rho], [2, 3]).matrix, rho.matrix, atol=1e-15)

    def test_right_angle_equal_mix(self):
        # two unit vectors at sphere angle 90 deg, equal weight: |M| = cos(45 deg)
        mixed = mix(
            [
                density_from_poincare(PoincareVector(1, 0, 0)),
                density_from_poincare(PoincareVector(0, 1, 0)),
            ],
            [1, 1],
        )
        assert abs(dop(poincare_from_density(mixed)) - math.cos(math.pi / 4)) < 1e-12

    def test_all_zero_weights_rejected(self):
        rho = density_from_poincare(PoincareVector(0, 0, 0))
        with pytest.raises(InvariantError):
            mix([rho, rho], [0, 0])


class TestSingletProjector:
    def test_matrix_entries(self):
        p = SINGLET
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        np.testing.assert_allclose(p, expected, atol=1e-15)

    def test_idempotent_unit_trace(self):
        p = SINGLET
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p).real - 1.0) < 1e-12

    def test_rotational_invariance(self):
        rng = np.random.default_rng(13)
        p = SINGLET
        for _ in range(20):
            u = rotation_unitary(random_unit_vector(rng), rng.uniform(0, 2 * math.pi))
            uu = np.kron(u, u)
            np.testing.assert_allclose(uu @ p @ uu.conj().T, p, atol=1e-12)


class TestSingletProbability:
    # pair_projection_probability at the destructive stage phase, 0
    def test_identical_pure_states(self):
        m = [0.0, 0.0, 1.0]
        assert abs(pair_projection_probability(m, m)) < 1e-15

    def test_fully_mixed_quarter(self):
        m = [0.0, 0.0, 0.0]
        assert abs(pair_projection_probability(m, m) - 0.25) < 1e-15

    def test_partial_state_frozen_value(self):
        # frozen from the explicit 4x4 trace oracle at M = (0.6, 0, 0)
        m = [0.6, 0.0, 0.0]
        assert abs(pair_projection_probability(m, m) - 0.16) < 1e-12
        assert abs(brute_force_trace(m, m, SINGLET) - 0.16) < 1e-12

    def test_orthogonal_pure_states(self):
        assert abs(pair_projection_probability([0, 0, 1], [0, 0, -1]) - 0.5) < 1e-15

    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(1000):
            a, b = random_poincare(rng), random_poincare(rng)
            worst = max(worst, abs(pair_projection_probability(a, b) - brute_force_trace(a, b, SINGLET)))
        assert worst < 1e-12

    def test_range_and_zero_condition(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            p = pair_projection_probability(random_poincare(rng), random_poincare(rng))
            assert -1e-15 <= p <= 0.5 + 1e-15
        # zero iff same pure state
        same = random_poincare(rng, pure=True)
        assert pair_projection_probability(same, same) < 1e-14
        almost = rotated(same, random_unit_vector(rng), 1e-3)
        assert pair_projection_probability(same, almost) > 0.0

    def test_quadratic_law_for_identical_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            m = random_poincare(rng)
            d = np.linalg.norm(m)
            assert abs(4.0 * pair_projection_probability(m, m) + d * d - 1.0) < 1e-12

    def test_rotational_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            a, b = random_poincare(rng), random_poincare(rng)
            axis = random_unit_vector(rng)
            angle = rng.uniform(0, 2 * math.pi)
            ra, rb = rotated(a, axis, angle), rotated(b, axis, angle)
            assert abs(pair_projection_probability(ra, rb) - pair_projection_probability(a, b)) < 1e-12


class TestBruteForceTrace:
    def test_identity_operator_gives_one(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = random_poincare(rng), random_poincare(rng)
            assert abs(brute_force_trace(a, b, np.eye(4)) - 1.0) < 1e-12

    def test_fully_mixed_singlet_quarter(self):
        m = [0.0, 0.0, 0.0]
        assert abs(brute_force_trace(m, m, SINGLET) - 0.25) < 1e-14


class TestPoincareAngle:
    def test_identical(self):
        m = PoincareVector(0, 0, 1)
        assert poincare_angle(m, m) == 0.0

    def test_antipodal(self):
        assert abs(poincare_angle(PoincareVector(0, 0, 1), PoincareVector(0, 0, -1)) - math.pi) < 1e-15

    def test_perpendicular(self):
        assert abs(poincare_angle(PoincareVector(1, 0, 0), PoincareVector(0, 1, 0)) - math.pi / 2) < 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(UndefinedDirectionError):
            poincare_angle(PoincareVector(0, 0, 0), PoincareVector(0, 0, 1))


class TestRotatePoincare:
    def test_zero_angle(self):
        m = PoincareVector(0.2, 0.3, 0.4)
        out = rotate_poincare(m, (1, 0, 0), 0.0)
        np.testing.assert_allclose(out.as_array(), m.as_array(), atol=1e-15)

    def test_quarter_turn_right_handed(self):
        out = rotate_poincare(PoincareVector(0, 0, 1), (1, 0, 0), math.pi / 2)
        np.testing.assert_allclose(out.as_array(), [0, -1, 0], atol=1e-12)

    def test_full_turn(self):
        rng = np.random.default_rng(37)
        m = random_poincare(rng)
        out = rotate_poincare(m, random_unit_vector(rng), 2 * math.pi)
        assert np.max(np.abs(out.as_array() - m)) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = random_poincare(rng)
            out = rotate_poincare(m, random_unit_vector(rng), rng.uniform(0, 7))
            assert abs(out.norm() - PoincareVector.from_array(m).norm()) < 1e-12

    def test_zero_axis_rejected(self):
        with pytest.raises(UndefinedDirectionError):
            rotate_poincare(PoincareVector(0, 0, 1), (0, 0, 0), 1.0)

    def test_unitary_route_agrees(self):
        # conjugating rho by the SU(2) element turns M as rotate_poincare_many does
        rng = np.random.default_rng(43)
        for _ in range(50):
            rho = random_density(rng)
            axis = random_unit_vector(rng)
            angle = rng.uniform(0, 2 * math.pi)
            u = rotation_unitary(axis, angle)
            direct = u @ rho.matrix @ u.conj().T
            via_vector = density_from_poincare(rotated(poincare_from_density(rho).as_array(), axis, angle)).matrix
            np.testing.assert_allclose(direct, via_vector, atol=1e-12)


class TestRotatePoincareMany:
    def test_equals_rotate_and_density_round_trip(self):
        # mixed states of every radius, among them each one whose |M| differs
        # between PoincareVector.norm (libm pow) and x * x; axes off unit norm
        # by up to 1e-10
        rng = np.random.default_rng(47)
        pool = [PoincareVector.from_array(random_poincare(rng)) for _ in range(20_000)]
        pow_trap = [m for m in pool if m.norm() != math.sqrt(m.m1 * m.m1 + m.m2 * m.m2 + m.m3 * m.m3)]
        assert pow_trap
        states = pow_trap + pool[:1000]
        axes = np.array([random_unit_vector(rng) * (1 + rng.uniform(-1e-10, 1e-10)) for _ in range(3)])
        angles = rng.uniform(-10, 10, size=(3, len(states)))
        out = rotate_poincare_many(np.array([m.as_array() for m in states]), axes, angles)
        rotated = [
            [rotate_poincare(m, axis, angle) for m, angle in zip(states, row)]
            for axis, row in zip(axes, angles)
        ]
        assert np.array_equal(out, np.array([[m.as_array() for m in row] for row in rotated]))
        expected = [
            [poincare_from_density(density_from_poincare(m)).as_array() for m in row] for row in rotated
        ]
        assert np.array_equal(poincare_round_trip(out), np.array(expected))

    def test_axis_checks(self):
        m = [(0.0, 0.0, 1.0)]
        with pytest.raises(UndefinedDirectionError):
            rotate_poincare_many(m, [(0, 0, 0)], [[1.0]])
        with pytest.raises(InvariantError):
            rotate_poincare_many(m, [(0, 0, 1.001)], [[1.0]])
        with pytest.raises(InvariantError):
            rotate_poincare_many(m, [(0, math.nan, 1)], [[1.0]])

    def test_non_finite_result_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(InvariantError):
            rotate_poincare_many([(0.0, 0.0, 1.0)], [(1, 0, 0)], [[math.inf]])


class TestMixtureDopMany:
    def test_equals_dop_of_mix(self):
        # pure and mixed line states, among them the |M| that differ between
        # libm pow and x * x, mixed with unequal weights, some zero
        rng = np.random.default_rng(53)
        pool = [random_poincare(rng, pure=bool(k % 2)) for k in range(6000)]
        mvecs = np.array(pool).reshape(2000, 3, 3)
        for weights in ([1.0, 1.0, 1.0], [0.25, 0.5, 0.25], [0.3, 0.0, 1.7]):
            expected = [
                dop(poincare_from_density(mix([density_from_poincare(m) for m in row], weights)))
                for row in pool_rows(pool, 3)
            ]
            assert np.array_equal(mixture_dop_many(mvecs, weights), np.array(expected))

    def test_rejects_bad_weights_and_states(self):
        m = np.zeros((1, 2, 3))
        with pytest.raises(InvariantError):
            mixture_dop_many(m, [1.0, -1.0])
        with pytest.raises(InvariantError):
            mixture_dop_many(m, [0.0, 0.0])
        with pytest.raises(InvariantError):
            mixture_dop_many(m, [1.0, 1.0, 1.0])
        with pytest.raises(InvariantError):
            mixture_dop_many(np.array([[[0.0, 0.0, 1.5], [0.0, 0.0, 1.0]]]), [1.0, 1.0])
        with pytest.raises(InvariantError):
            mixture_dop_many(np.array([[[math.nan, 0.0, 0.0], [0.0, 0.0, 1.0]]]), [1.0, 1.0])


class TestCheckPureStates:
    def test_accepts_pure_states(self):
        check_pure_states([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0 + 1e-13]], "lines")

    def test_rejects_invalid_states(self):
        with pytest.raises(InvariantError, match="exceeds 1"):
            check_pure_states([[0.0, 0.0, 1.0 + 1e-10]], "lines")
        with pytest.raises(InvariantError, match="non-finite"):
            check_pure_states([[math.nan, 0.0, 0.0]], "lines")
        with pytest.raises(InvariantError, match="pure"):
            check_pure_states([[0.6, 0.0, 0.0]], "lines")


def pool_rows(pool, width):
    return [pool[k:k + width] for k in range(0, len(pool), width)]


class TestTypeInvariants:
    # a Stokes vector with negative power or |S123| > S0 has no DOP: the
    # polarimeter rejects both
    def test_stokes_rejects_negative_power(self):
        with pytest.raises(NumericsError, match="non-positive averaged power"):
            one_line_polarimeter_dop((-1, 0, 0, 0))

    def test_stokes_rejects_overpolarized(self):
        with pytest.raises(NumericsError, match="above 1"):
            one_line_polarimeter_dop((1, 1, 1, 0))

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(InvariantError):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(InvariantError):
            DensityMatrix(np.diag([0.7, 0.5]))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantError):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_density_matrix_is_read_only(self):
        rho = density_from_poincare(PoincareVector(0, 0, 0))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0
