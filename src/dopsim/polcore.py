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

Everything here takes plain arrays of Poincare vectors and is free of
randomness.  The per-sample reference route -- one density matrix or
Poincare vector object per state -- lives in ``tests/oracles.py``; the array
kernels below equal it bit for bit, and the golden outputs were recorded
through its arithmetic.
"""

from __future__ import annotations

import math
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


class UndefinedDirectionError(DopsimError):
    """A direction-dependent quantity was requested for a zero-length vector."""


class NumericsError(DopsimError):
    """A numerical identity that should hold to rounding error did not."""


def brute_force_trace(ma, mb, op) -> float:
    """Tr((rho_a x rho_b) . op) via the explicit 4x4 tensor product, for the
    Poincare vectors ma, mb (3,) and a 4x4 operator in TWO_PHOTON_BASIS.

    Each rho = (1 + M.sigma)/2 is built from the Pauli matrices, so this is
    an oracle independent of the closed form the meter uses; raises
    NumericsError if the imaginary residue exceeds 1e-12 (it cannot for
    valid inputs).
    """
    rho_a, rho_b = (
        0.5 * (np.eye(2) + m[0] * PAULI_1 + m[1] * PAULI_2 + m[2] * PAULI_3)
        for m in (np.asarray(ma, dtype=float), np.asarray(mb, dtype=float))
    )
    val = complex(np.trace(np.kron(rho_a, rho_b) @ np.asarray(op)))
    if abs(val.imag) > ATOL_EXACT:
        raise NumericsError(f"brute_force_trace: imaginary residue {val.imag:.3e}")
    return val.real


def rotate_poincare_many(states, axes, angles) -> np.ndarray:
    """Rotate each of L states by each of n (axis, angle) samples: (n, L, 3).

    Rodrigues' rotation with the reference route's operation order, axis
    renormalisation and |M| rescale, equal to it bit for bit.  ``states`` is
    (L, 3), ``axes`` (n, 3), each within 1e-9 of unit norm, and ``angles``
    (n, L).  Every result is finite with |M| <= 1 + 1e-12, checked in bulk.

    Every operation runs along the samples, on (L, n) planes of one
    component each, and the result is a view of (L, 3, n) storage: one
    contiguous run of samples per line and component.  ``angles`` given as
    the transpose of an (L, n) array is read without a copy.
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
    k1, k2, k3 = a1 / n, a2 / n, a3 / n

    v = np.asarray(states, dtype=float)
    v1, v2, v3 = v[:, 0:1], v[:, 1:2], v[:, 2:3]  # (L, 1) columns against (n,) rows
    angles = np.asarray(angles, dtype=float).T
    c, s = np.cos(angles, order="C"), np.sin(angles, order="C")
    radial = (1.0 - c) * (k1 * v1 + k2 * v2 + k3 * v3)
    r1 = v1 * c + (k2 * v3 - k3 * v2) * s + k1 * radial
    r2 = v2 * c + (k3 * v1 - k1 * v3) * s + k2 * radial
    r3 = v3 * c + (k1 * v2 - k2 * v1) * s + k3 * radial
    # n0 as the reference route takes it: its ``**2`` is libm pow, which
    # differs from x * x in the last bit for some x.
    n0 = np.array([[math.sqrt(m1**2 + m2**2 + m3**2)] for m1, m2, m3 in v.tolist()])
    n1 = np.sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    scale = np.divide(n0, n1, out=np.ones_like(n1), where=n1 > 0.0)
    out = np.empty((len(v), 3, len(k1)))
    r1, r2, r3 = (np.multiply(r, scale, out=out[:, i]) for i, r in enumerate((r1, r2, r3)))
    # NaN fails the comparison, so this also rejects non-finite results
    if not np.max(r1 * r1 + r2 * r2 + r3 * r3) <= (1.0 + ATOL_EXACT) ** 2:
        raise InvariantError("rotate_poincare_many: a rotated vector is non-finite or has |M| > 1")
    return out.transpose(2, 0, 1)


def poincare_round_trip(m) -> np.ndarray:
    """M through rho = (1 + M.sigma)/2 and back by Pauli traces, for every M
    along the last axis of m (..., 3), operation for operation: M1 and M2 come back
    as they went in, M3 as 0.5 (1 + m3) - 0.5 (1 - m3).  The result has m's
    memory order, so each component runs along the samples as m holds them."""
    m = np.asarray(m, dtype=float)
    out = np.moveaxis(np.empty_like(np.moveaxis(m, -1, 0)), 0, -1)
    m1, m2, m3 = m[..., 0], m[..., 1], m[..., 2]
    np.multiply(2.0, 0.5 * m1, out=out[..., 0])
    np.multiply(-2.0, -0.5 * m2, out=out[..., 1])
    np.subtract(0.5 * (1.0 + m3), 0.5 * (1.0 - m3), out=out[..., 2])
    return out


def check_pure_states(m, name: str) -> None:
    """The invariants of a laser line's Poincare vector, for every M along
    the last axis of m (..., 3), in bulk: finite, |M| <= 1 + 1e-12 and |M|
    within 1e-9 of 1 (pure)."""
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
    """The invariants of a state's density matrix, for the Hermitian matrices
    [[hh, re - i im], [re + i im, vv]], in bulk: finite, unit trace, no
    negative eigenvalue."""
    s = np.sqrt((hh - vv) ** 2 + 4.0 * (re * re + im * im))
    tr = hh + vv
    unit_trace = np.abs(tr - 1.0) <= ATOL_EXACT
    # a NaN or infinite s or tr fails both comparisons, so one reduction clears a valid batch
    if (unit_trace & ((tr - s) / 2.0 >= -ATOL_EXACT)).all():
        return
    if not (np.isfinite(s) & np.isfinite(tr)).all():
        raise InvariantError(f"{name}: non-finite density matrix entries")
    if not unit_trace.all():
        raise InvariantError(f"{name}: density matrix trace departs from 1")
    raise InvariantError(f"{name}: negative eigenvalue (not a state)")


def mixture_dop_many(mvecs, weights) -> np.ndarray:
    """DOP of the weighted mixture of L line states for each of P beams: (P,).

    ``mvecs`` (P, L, 3) holds the Poincare vectors the lines' density
    matrices were built from, ``weights`` (L,) the line intensities.  Row p
    is |M| of the intensity-weighted mixture of the lines' density matrices,
    equal bit for bit to the reference route's: the same density entries,
    normalised weights and accumulation order, and |M| through ``**2``.  The
    density-matrix invariants of every line state and every mixture are
    checked in bulk, and so is |M| <= 1 + 1e-12.
    """
    mvecs = np.asarray(mvecs, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or not len(w) or mvecs.ndim != 3 or mvecs.shape[1:] != (len(w), 3):
        raise InvariantError("mixture_dop_many: need (P, L, 3) states and L weights (at least one)")
    if not all(0.0 <= wi < math.inf for wi in w.tolist()):
        raise InvariantError("mixture_dop_many: weights must be finite and >= 0")
    total = float(w.sum())
    if total <= 0.0:
        raise InvariantError("mixture_dop_many: at least one weight must be > 0")
    # the density entries hh, vv, re, im of every line state, four (P, L)
    # planes, checked at once and then mixed in line order
    m1, m2, m3 = mvecs[..., 0], mvecs[..., 1], mvecs[..., 2]
    entries = 0.5 * np.array([1.0 + m3, 1.0 - m3, m1, -m2])
    _check_densities(*entries, "mixture_dop_many: a line state")
    mixed = 0.0
    for line, wi in enumerate(w.tolist()):
        mixed = mixed + wi / total * entries[..., line]
    hh, vv, re, im = mixed
    _check_densities(hh, vv, re, im, "mixture_dop_many: a mixture")
    norms = np.array([
        math.sqrt(x**2 + y**2 + z**2)
        for x, y, z in zip((2.0 * re).tolist(), (-2.0 * im).tolist(), (hh - vv).tolist())
    ])
    if not (norms <= 1.0 + ATOL_EXACT).all():
        raise InvariantError("mixture_dop_many: a mixture is non-finite or has |M| > 1")
    return np.minimum(norms, 1.0)
