"""Polarization-state algebra and the two-photon singlet projection.

A quasi-monochromatic beam's polarization is a qubit state: a 2x2 density
matrix rho = (1 + M.sigma)/2 in the {H, V} basis, with M the Poincare vector
and DOP = |M|.  Projecting a photon pair onto the two-photon singlet state
(|HV> - |VH>)/sqrt(2) measures (1 - M_a.M_b)/4, which for a pair drawn from
one beam is (1 - DOP^2)/4 -- a direct DOP readout.

Conventions, frozen for the whole package:

* Pauli axis assignment: sigma_3 eigenstates are H (+1) and V (-1);
  sigma_1 corresponds to the +/-45 deg linear states; sigma_2 to the
  circular states.
* Rotations on the Poincare sphere follow the right-hand rule about the
  rotation axis.
* Exact linear-algebra identities hold to ATOL_EXACT = 1e-12; user-supplied
  inputs are validated at ATOL_INPUT = 1e-9.

Everything here is immutable after construction and free of randomness, so
values can be shared between any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ATOL_EXACT = 1e-12
ATOL_INPUT = 1e-9

PAULI_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Ordered two-photon basis used by every 4x4 operator in this package.
TWO_PHOTON_BASIS = ("HH", "HV", "VH", "VV")


class DopsimError(ValueError):
    """Base class for domain errors raised by this package."""


class InvariantError(DopsimError):
    """A value failed its construction-time invariant."""


class UndefinedDopError(DopsimError):
    """DOP requested for a beam with zero intensity."""


class UndefinedDirectionError(DopsimError):
    """A direction-dependent quantity was requested for a zero-length vector."""


class NumericsError(DopsimError):
    """A numerical identity that should hold to rounding error did not."""


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvariantError(f"{name}: non-finite component {v!r}")


@dataclass(frozen=True)
class PoincareVector:
    """Point in the closed unit ball; |M| is the degree of polarization."""

    m1: float
    m2: float
    m3: float

    def __post_init__(self) -> None:
        _require_finite("PoincareVector", self.m1, self.m2, self.m3)
        if self.norm() > 1.0 + ATOL_EXACT:
            raise InvariantError(
                f"PoincareVector: |M| = {self.norm():.17g} exceeds 1 (unphysical state)"
            )

    def norm(self) -> float:
        return math.sqrt(self.m1**2 + self.m2**2 + self.m3**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3])

    @classmethod
    def from_array(cls, arr) -> "PoincareVector":
        a = np.asarray(arr, dtype=float).reshape(3)
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class StokesVector:
    """Classical polarization descriptor (s0..s3) in linear power units."""

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self) -> None:
        _require_finite("StokesVector", self.s0, self.s1, self.s2, self.s3)
        if self.s0 < 0.0:
            raise InvariantError(f"StokesVector: s0 = {self.s0} must be >= 0")
        excess = (self.s1**2 + self.s2**2 + self.s3**2) - self.s0**2
        if excess > ATOL_INPUT * self.s0**2:
            raise InvariantError(
                "StokesVector: s1^2+s2^2+s3^2 exceeds s0^2 (over-polarized input)"
            )

    def poincare(self) -> PoincareVector:
        """Normalized polarization vector M_j = s_j / s0; undefined at s0 = 0."""
        if self.s0 <= 0.0:
            raise UndefinedDopError("polarization undefined at zero power")
        m = np.array([self.s1, self.s2, self.s3]) / self.s0
        n = float(np.linalg.norm(m))
        if n > 1.0:  # shave the 1e-9 ingestion tolerance before the exact type
            m = m / n
        return PoincareVector.from_array(m)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """2x2 Hermitian, unit-trace, positive semidefinite matrix in {H, V}."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise InvariantError(f"DensityMatrix: expected 2x2 matrix, got {m.shape}")
        a, b = complex(m[0, 0]), complex(m[0, 1])
        c, d = complex(m[1, 0]), complex(m[1, 1])
        for z in (a, b, c, d):
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvariantError("DensityMatrix: non-finite entries")
        if abs(a.imag) > ATOL_EXACT or abs(d.imag) > ATOL_EXACT or abs(b - c.conjugate()) > ATOL_EXACT:
            raise InvariantError("DensityMatrix: not Hermitian")
        tr = a.real + d.real
        if abs(tr - 1.0) > ATOL_EXACT:
            raise InvariantError(f"DensityMatrix: trace = {tr:.17g}, expected 1")
        # Analytic eigenvalues of a trace-1 Hermitian 2x2: (1 +/- s)/2 with
        # s^2 = (a - d)^2 + 4|b|^2.
        s = math.sqrt((a.real - d.real) ** 2 + 4.0 * abs(b) ** 2)
        if (tr - s) / 2.0 < -ATOL_EXACT:
            raise InvariantError("DensityMatrix: negative eigenvalue (not a state)")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def hh(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def hv(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def vh(self) -> complex:
        return complex(self.matrix[1, 0])

    @property
    def vv(self) -> complex:
        return complex(self.matrix[1, 1])


@dataclass(frozen=True)
class PureState:
    """Unit-norm Jones vector (H amplitude, V amplitude)."""

    h: complex
    v: complex

    def __post_init__(self) -> None:
        n = abs(self.h) ** 2 + abs(self.v) ** 2
        if not math.isfinite(n) or abs(n - 1.0) > ATOL_EXACT:
            raise InvariantError(f"PureState: squared norm = {n:.17g}, expected 1")

    def density(self) -> DensityMatrix:
        vec = np.array([self.h, self.v], dtype=complex)
        return DensityMatrix(np.outer(vec, vec.conj()))

    def poincare(self) -> PoincareVector:
        return poincare_from_density(self.density())

    @classmethod
    def from_poincare(cls, m: PoincareVector) -> "PureState":
        """Jones vector of the surface point M (requires |M| = 1 within 1e-9)."""
        if abs(m.norm() - 1.0) > ATOL_INPUT:
            raise InvariantError(
                f"PureState.from_poincare: |M| = {m.norm():.12g}, need a unit vector"
            )
        theta = math.acos(min(1.0, max(-1.0, m.m3 / m.norm())))
        phi = math.atan2(m.m2, m.m1)
        return cls(math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi)))


@dataclass(frozen=True, eq=False)
class TwoPhotonOperator:
    """Hermitian 4x4 operator in the ordered basis (HH, HV, VH, VV)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvariantError(f"TwoPhotonOperator: expected 4x4 matrix, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise InvariantError("TwoPhotonOperator: non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > ATOL_EXACT:
            raise InvariantError("TwoPhotonOperator: not Hermitian")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def density_from_poincare(m: PoincareVector) -> DensityMatrix:
    """Map M to rho = (1 + M.sigma)/2; rejects |M| > 1."""
    if not isinstance(m, PoincareVector):
        m = PoincareVector.from_array(m)
    mat = np.empty((2, 2), dtype=complex)
    mat[0, 0] = 0.5 * (1.0 + m.m3)
    mat[0, 1] = complex(0.5 * m.m1, -0.5 * m.m2)
    mat[1, 0] = complex(0.5 * m.m1, 0.5 * m.m2)
    mat[1, 1] = 0.5 * (1.0 - m.m3)
    return DensityMatrix(mat)


def poincare_components(rho: DensityMatrix) -> tuple[float, float, float]:
    """M_j = Tr(rho sigma_j) as plain floats, for building arrays of states."""
    m = rho.matrix
    return (2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, m[0, 0].real - m[1, 1].real)


def poincare_from_density(rho: DensityMatrix) -> PoincareVector:
    """Inverse map via Pauli traces, M_j = Tr(rho sigma_j)."""
    return PoincareVector(*poincare_components(rho))


def dop(x: StokesVector | PoincareVector) -> float:
    """Degree of polarization |M| in [0, 1].

    Accepts either descriptor; a zero-intensity Stokes vector has no defined
    polarization and raises UndefinedDopError.
    """
    if isinstance(x, PoincareVector):
        return min(x.norm(), 1.0)
    if isinstance(x, StokesVector):
        if x.s0 <= 0.0:
            raise UndefinedDopError("DOP undefined at zero power")
        return min(math.sqrt(x.s1**2 + x.s2**2 + x.s3**2) / x.s0, 1.0)
    raise TypeError(f"dop() expects StokesVector or PoincareVector, got {type(x)!r}")


def mix(states: list[DensityMatrix], weights: list[float]) -> DensityMatrix:
    """Intensity-weighted convex combination of states (normalized)."""
    if len(states) != len(weights) or not states:
        raise InvariantError("mix: need equally many states and weights (at least one)")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise InvariantError("mix: weights must be finite and >= 0")
    total = float(w.sum())
    if total <= 0.0:
        raise InvariantError("mix: at least one weight must be > 0")
    out = np.zeros((2, 2), dtype=complex)
    for rho, wi in zip(states, w):
        out += (wi / total) * rho.matrix
    return DensityMatrix(out)


def singlet_projector() -> TwoPhotonOperator:
    """Projector onto (|HV> - |VH>)/sqrt(2); rank 1, rotation invariant."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return TwoPhotonOperator(np.outer(psi, psi.conj()))


def singlet_probability(rho_a: DensityMatrix, rho_b: DensityMatrix) -> float:
    """Probability that a photon pair in rho_a x rho_b projects onto the singlet.

    Closed form (1 - M_a.M_b)/4, in [0, 1/2]; zero exactly when both photons
    share one pure state.  For rho_a = rho_b this is (1 - DOP^2)/4.
    """
    ma = poincare_from_density(rho_a).as_array()
    mb = poincare_from_density(rho_b).as_array()
    return 0.25 * (1.0 - float(ma @ mb))


def brute_force_trace(rho_a: DensityMatrix, rho_b: DensityMatrix, op: TwoPhotonOperator) -> float:
    """Tr((rho_a x rho_b) . op) via the explicit 4x4 tensor product.

    Independent cross-check for singlet_probability; raises NumericsError if
    the imaginary residue exceeds 1e-12 (it cannot for valid inputs).
    """
    product = np.kron(rho_a.matrix, rho_b.matrix)
    val = complex(np.trace(product @ op.matrix))
    if abs(val.imag) > ATOL_EXACT:
        raise NumericsError(f"brute_force_trace: imaginary residue {val.imag:.3e}")
    return val.real


def poincare_angle(m_a: PoincareVector, m_b: PoincareVector) -> float:
    """Angle in [0, pi] between two Poincare vectors.

    This is the sphere angle between the states (twice the physical angle
    between polarization ellipses for linear states).
    """
    na, nb = m_a.norm(), m_b.norm()
    if na <= 0.0 or nb <= 0.0:
        raise UndefinedDirectionError("poincare_angle: zero-length vector has no direction")
    c = float(m_a.as_array() @ m_b.as_array()) / (na * nb)
    return math.acos(min(1.0, max(-1.0, c)))


def _unit_axis(axis) -> tuple[float, float, float]:
    if isinstance(axis, tuple) and len(axis) == 3:
        k1, k2, k3 = axis
    else:
        arr = np.asarray(axis, dtype=float).reshape(3)
        k1, k2, k3 = float(arr[0]), float(arr[1]), float(arr[2])
    n = math.sqrt(k1 * k1 + k2 * k2 + k3 * k3)
    if not math.isfinite(n):
        raise InvariantError("rotation axis has non-finite components")
    if n == 0.0:
        raise UndefinedDirectionError("rotation axis must be nonzero")
    if abs(n - 1.0) > ATOL_INPUT:
        raise InvariantError(f"rotation axis norm {n:.12g} not within 1e-9 of 1")
    return (k1 / n, k2 / n, k3 / n)


def rotate_poincare(m: PoincareVector, axis, angle: float) -> PoincareVector:
    """Rigid right-handed rotation of M about a unit axis; preserves |M|."""
    k1, k2, k3 = _unit_axis(axis)
    v1, v2, v3 = m.m1, m.m2, m.m3
    c, s = math.cos(angle), math.sin(angle)
    radial = (1.0 - c) * (k1 * v1 + k2 * v2 + k3 * v3)
    r1 = v1 * c + (k2 * v3 - k3 * v2) * s + k1 * radial
    r2 = v2 * c + (k3 * v1 - k1 * v3) * s + k2 * radial
    r3 = v3 * c + (k1 * v2 - k2 * v1) * s + k3 * radial
    # Rodrigues preserves the norm up to rounding; renormalize the residue so
    # the constructor's exact-tolerance invariant cannot trip on |M| = 1 inputs.
    n0 = m.norm()
    n1 = math.sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    if n1 > 0.0:
        scale = n0 / n1
        r1, r2, r3 = r1 * scale, r2 * scale, r3 * scale
    return PoincareVector(r1, r2, r3)


def rotate_poincare_many(states: Sequence[PoincareVector], axes, angles) -> np.ndarray:
    """Rotate each of L states by each of n (axis, angle) samples: (n, L, 3).

    Vectorised ``rotate_poincare``, equal to it bit for bit: the same
    operation order, axis renormalisation and |M| rescale.  ``axes`` is
    (n, 3), each within 1e-9 of unit norm; ``angles`` is (n, L).  The result
    meets the PoincareVector invariants (finite, |M| <= 1 + 1e-12), checked
    in bulk.
    """
    axes = np.asarray(axes, dtype=float)
    a1, a2, a3 = axes[:, 0], axes[:, 1], axes[:, 2]
    n = np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    if not np.all(np.isfinite(n)):
        raise InvariantError("rotation axis has non-finite components")
    if np.any(n == 0.0):
        raise UndefinedDirectionError("rotation axis must be nonzero")
    off = n[np.abs(n - 1.0) > ATOL_INPUT]
    if off.size:
        raise InvariantError(f"rotation axis norm {off[0]:.12g} not within 1e-9 of 1")
    k1, k2, k3 = (a[:, None] / n[:, None] for a in (a1, a2, a3))

    v = np.array([m.as_array() for m in states])
    v1, v2, v3 = v[:, 0], v[:, 1], v[:, 2]
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    radial = (1.0 - c) * (k1 * v1 + k2 * v2 + k3 * v3)
    r1 = v1 * c + (k2 * v3 - k3 * v2) * s + k1 * radial
    r2 = v2 * c + (k3 * v1 - k1 * v3) * s + k2 * radial
    r3 = v3 * c + (k1 * v2 - k2 * v1) * s + k3 * radial
    # n0 through PoincareVector.norm: its ``**2`` is libm pow, which differs
    # from x * x in the last bit for some x.
    n0 = np.array([m.norm() for m in states])
    n1 = np.sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    scale = np.divide(n0, n1, out=np.ones_like(n1), where=n1 > 0.0)
    r1, r2, r3 = r1 * scale, r2 * scale, r3 * scale
    # NaN fails the comparison, so this also rejects non-finite results
    if not np.max(r1 * r1 + r2 * r2 + r3 * r3) <= (1.0 + ATOL_EXACT) ** 2:
        raise InvariantError("rotate_poincare_many: a rotated vector is non-finite or has |M| > 1")
    return np.stack([r1, r2, r3], axis=-1)


def poincare_round_trip(m) -> np.ndarray:
    """``poincare_from_density(density_from_poincare(M))`` for every M along
    the last axis of m (..., 3), operation for operation: M1 and M2 come back
    as they went in, M3 as 0.5 (1 + m3) - 0.5 (1 - m3)."""
    m = np.asarray(m, dtype=float)
    m1, m2, m3 = m[..., 0], m[..., 1], m[..., 2]
    return np.stack([2.0 * (0.5 * m1), -2.0 * (-0.5 * m2), 0.5 * (1.0 + m3) - 0.5 * (1.0 - m3)], axis=-1)


def check_pure_states(m, name: str) -> None:
    """The invariants of a laser line's Poincare vector, for every M along
    the last axis of m (..., 3), in bulk: finite, |M| <= 1 + 1e-12 (as
    PoincareVector) and |M| within 1e-9 of 1 (pure)."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvariantError(f"{name}: non-finite component")
    norm = np.sqrt(np.sum(m * m, axis=-1))
    if np.any(norm > 1.0 + ATOL_EXACT):
        raise InvariantError(f"{name}: |M| = {norm.max():.17g} exceeds 1 (unphysical state)")
    off = norm[np.abs(norm - 1.0) > ATOL_INPUT]
    if off.size:
        raise InvariantError(f"{name}: |M| = {off[0]:.12g}, laser lines must be pure (|M| = 1)")


def _check_densities(hh, vv, re, im, name: str) -> None:
    """DensityMatrix invariants of the Hermitian matrices [[hh, re - i im],
    [re + i im, vv]], in bulk: finite, unit trace, no negative eigenvalue."""
    s = np.sqrt((hh - vv) ** 2 + 4.0 * (re * re + im * im))
    tr = hh + vv
    if not np.all(np.isfinite(s) & np.isfinite(tr)):
        raise InvariantError(f"{name}: non-finite density matrix entries")
    if np.any(np.abs(tr - 1.0) > ATOL_EXACT):
        raise InvariantError(f"{name}: density matrix trace departs from 1")
    if np.any((tr - s) / 2.0 < -ATOL_EXACT):
        raise InvariantError(f"{name}: negative eigenvalue (not a state)")


def mixture_dop_many(mvecs, weights) -> np.ndarray:
    """DOP of the weighted mixture of L line states for each of P beams: (P,).

    ``mvecs`` (P, L, 3) holds the Poincare vectors the lines' density
    matrices were built from, ``weights`` (L,) the line intensities.  Row p
    equals ``dop(poincare_from_density(mix([density_from_poincare(M) for M in
    mvecs[p]], weights)))`` bit for bit: the same density entries, normalised
    weights and accumulation order, and |M| through ``**2`` as
    ``PoincareVector.norm``.  The DensityMatrix invariants of every line
    state and every mixture and the PoincareVector invariants of the result
    are checked in bulk.
    """
    mvecs = np.asarray(mvecs, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or not len(w) or mvecs.ndim != 3 or mvecs.shape[1:] != (len(w), 3):
        raise InvariantError("mixture_dop_many: need (P, L, 3) states and L weights (at least one)")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise InvariantError("mix: weights must be finite and >= 0")
    total = float(w.sum())
    if total <= 0.0:
        raise InvariantError("mix: at least one weight must be > 0")
    # density_from_poincare entries of each line, mixed in line order as mix() does
    hh = vv = re = im = 0.0
    for line, wi in enumerate(w):
        m1, m2, m3 = mvecs[:, line, 0], mvecs[:, line, 1], mvecs[:, line, 2]
        line_hh, line_vv, line_re, line_im = 0.5 * (1.0 + m3), 0.5 * (1.0 - m3), 0.5 * m1, -0.5 * m2
        _check_densities(line_hh, line_vv, line_re, line_im, "density_from_poincare")
        share = wi / total
        hh = hh + share * line_hh
        vv = vv + share * line_vv
        re = re + share * line_re
        im = im + share * line_im
    _check_densities(hh, vv, re, im, "mix")
    mixed = np.stack([2.0 * re, -2.0 * im, hh - vv], axis=-1)
    norms = np.array([math.sqrt(m1**2 + m2**2 + m3**2) for m1, m2, m3 in mixed.tolist()])
    if not np.all(norms <= 1.0 + ATOL_EXACT):
        raise InvariantError("mixture_dop_many: a mixture is non-finite or has |M| > 1")
    return np.minimum(norms, 1.0)


def rotate_density(rho: DensityMatrix, axis, angle: float) -> DensityMatrix:
    """The same rotation applied to a density matrix (through its M vector)."""
    return density_from_poincare(rotate_poincare(poincare_from_density(rho), axis, angle))


def rotation_unitary(axis, angle: float) -> np.ndarray:
    """SU(2) element exp(-i angle (axis.sigma)/2) matching rotate_poincare.

    Conjugating a density matrix by this unitary rotates its Poincare vector
    right-handedly by `angle` about `axis`.
    """
    k = _unit_axis(axis)
    sigma_k = k[0] * PAULI_1 + k[1] * PAULI_2 + k[2] * PAULI_3
    return math.cos(angle / 2.0) * np.eye(2, dtype=complex) - 1.0j * math.sin(angle / 2.0) * sigma_k
