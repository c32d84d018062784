"""The per-sample reference route of ``dopsim``: one value object per state.

The first half holds the value types the array kernels were written from:
``PoincareVector`` and ``DensityMatrix`` with their construction-time
invariants, the scalar maps between them (``density_from_poincare``,
``poincare_from_density``, ``mix``, ``dop``, ``poincare_angle``,
``rotate_poincare``, ``rotation_unitary``) and the beam types built on them
(``SpectralLine``, ``SourceSpec``, ``two_laser_source``,
``modulated_carrier_source``, ``source_dop``, ``great_circle_pair``,
``static_trace``).  The golden outputs were recorded through this
arithmetic.  The second half takes one beam (``SourceSpec``) or one fiber
state (``FiberState``) at a time, built from those operations.

The shipped array paths -- ``polcore.rotate_poincare_many``,
``polcore.mixture_dop_many``, ``channel.evolve_window``,
``channel.fiber_trace``, the batched PMD rotation in
``harness.run_pmd_sweep`` and the batched meter readout -- must equal this
route bit for bit, which ``test_polcore.py``, ``test_window_path.py`` and
``test_sweep_batch.py`` check over drawn settings.  The inversion constants
that ``instruments.pair_table`` holds, the mean contamination and the pair
normalization, are here as the meter inversion once computed them per call.
Functions that take a Poincare vector also take it as a (3,) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dopsim.channel import ChannelSettings, pmd_turns
from dopsim.instruments import (
    MeterConfig,
    MeterDopEstimate,
    PolarizationTrace,
    invert_meter_readout,
    pair_table,
    singlet_meter_raw,
)
from dopsim.polcore import (
    ATOL_EXACT,
    ATOL_INPUT,
    PAULI_1,
    PAULI_2,
    PAULI_3,
    InvariantError,
    UndefinedDirectionError,
)
from dopsim.sources import great_circle_vectors, modulation_wavelength_offset_nm

#: Generic sideband pattern for an intensity-modulated carrier.
DEFAULT_INTENSITY_SPLIT = (0.25, 0.5, 0.25)


def _unit_axis(axis) -> tuple[float, float, float]:
    """A rotation axis (3,) given within 1e-9 of unit norm, renormalised."""
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


@dataclass(frozen=True)
class PoincareVector:
    """Point in the closed unit ball; |M| is the degree of polarization."""

    m1: float
    m2: float
    m3: float

    def __post_init__(self) -> None:
        for v in (self.m1, self.m2, self.m3):
            if not math.isfinite(v):
                raise InvariantError(f"PoincareVector: non-finite component {v!r}")
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


def as_poincare(m) -> PoincareVector:
    """``m`` as a PoincareVector; a (3,) array is converted exactly."""
    return m if isinstance(m, PoincareVector) else PoincareVector.from_array(m)


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


def density_from_poincare(m) -> DensityMatrix:
    """Map M to rho = (1 + M.sigma)/2; rejects |M| > 1."""
    m = as_poincare(m)
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


def dop(m) -> float:
    """Degree of polarization |M| in [0, 1]."""
    return min(as_poincare(m).norm(), 1.0)


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


def poincare_angle(m_a, m_b) -> float:
    """Angle in [0, pi] between two Poincare vectors.

    This is the sphere angle between the states (twice the physical angle
    between polarization ellipses for linear states).
    """
    m_a, m_b = as_poincare(m_a), as_poincare(m_b)
    na, nb = m_a.norm(), m_b.norm()
    if na <= 0.0 or nb <= 0.0:
        raise UndefinedDirectionError("poincare_angle: zero-length vector has no direction")
    c = float(m_a.as_array() @ m_b.as_array()) / (na * nb)
    return math.acos(min(1.0, max(-1.0, c)))


def rotate_poincare(m, axis, angle: float) -> PoincareVector:
    """Rigid right-handed rotation of M about a unit axis; preserves |M|."""
    m = as_poincare(m)
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


def rotation_unitary(axis, angle: float) -> np.ndarray:
    """SU(2) element exp(-i angle (axis.sigma)/2) matching rotate_poincare.

    Conjugating a density matrix by this unitary rotates its Poincare vector
    right-handedly by `angle` about `axis`.
    """
    k = _unit_axis(axis)
    sigma_k = k[0] * PAULI_1 + k[1] * PAULI_2 + k[2] * PAULI_3
    return math.cos(angle / 2.0) * np.eye(2, dtype=complex) - 1.0j * math.sin(angle / 2.0) * sigma_k


@dataclass(frozen=True)
class SpectralLine:
    wavelength_nm: float
    intensity: float
    polarization: DensityMatrix

    def __post_init__(self) -> None:
        if not (math.isfinite(self.wavelength_nm) and self.wavelength_nm > 0.0):
            raise InvariantError(f"SpectralLine: wavelength_nm = {self.wavelength_nm} must be > 0")
        if not (math.isfinite(self.intensity) and self.intensity >= 0.0):
            raise InvariantError(f"SpectralLine: intensity = {self.intensity} must be >= 0")

    def poincare(self) -> PoincareVector:
        return poincare_from_density(self.polarization)


@dataclass(frozen=True)
class SourceSpec:
    """Ordered set of spectral lines; wavelengths strictly increasing."""

    lines: tuple[SpectralLine, ...]

    def __post_init__(self) -> None:
        if not self.lines:
            raise InvariantError("SourceSpec: need at least one line")
        object.__setattr__(self, "lines", tuple(self.lines))
        wavelengths = [line.wavelength_nm for line in self.lines]
        if any(b <= a for a, b in zip(wavelengths, wavelengths[1:])):
            raise InvariantError("SourceSpec: wavelengths must be strictly increasing")
        if self.total_intensity() <= 0.0:
            raise InvariantError("SourceSpec: total intensity must be > 0")

    def total_intensity(self) -> float:
        return sum(line.intensity for line in self.lines)

    def wavelengths_nm(self) -> tuple[float, ...]:
        return tuple(line.wavelength_nm for line in self.lines)

    def intensities(self) -> tuple[float, ...]:
        return tuple(line.intensity for line in self.lines)

    def mixture(self) -> DensityMatrix:
        """Intensity-weighted mixture of all line states."""
        return mix([line.polarization for line in self.lines],
                   [line.intensity for line in self.lines])


def _pure_density(m, name: str) -> DensityMatrix:
    m = as_poincare(m)
    if abs(m.norm() - 1.0) > ATOL_INPUT:
        raise InvariantError(f"{name}: |M| = {m.norm():.12g}, laser lines must be pure (|M| = 1)")
    return density_from_poincare(m)


def two_laser_source(lambda1_nm, lambda2_nm, intensity1, intensity2, m1, m2) -> SourceSpec:
    """Two independent pure laser lines at distinct wavelengths."""
    if lambda1_nm == lambda2_nm:
        raise InvariantError("two_laser_source: wavelengths must differ")
    if intensity1 + intensity2 <= 0.0:
        raise InvariantError("two_laser_source: total intensity must be > 0")
    lines = [
        SpectralLine(lambda1_nm, intensity1, _pure_density(m1, "two_laser_source m1")),
        SpectralLine(lambda2_nm, intensity2, _pure_density(m2, "two_laser_source m2")),
    ]
    lines.sort(key=lambda line: line.wavelength_nm)
    return SourceSpec(tuple(lines))


def source_dop(src: SourceSpec) -> float:
    """DOP of the full beam: |M| of the intensity-weighted line mixture."""
    return dop(poincare_from_density(src.mixture()))


def modulated_carrier_source(
    carrier_nm, bitrate_hz, m_lower, m_carrier, m_upper, intensity_split=DEFAULT_INTENSITY_SPLIT
) -> SourceSpec:
    """Carrier plus two modulation sidebands at carrier -/+ lambda^2 f / c.

    ``m_lower``/``m_upper`` are the polarizations of the lower/upper
    *wavelength* sidebands; ``intensity_split`` orders weights the same way.
    """
    if bitrate_hz <= 0.0:
        raise InvariantError("modulated_carrier_source: bitrate_hz must be > 0")
    offset = modulation_wavelength_offset_nm(carrier_nm, bitrate_hz)
    if offset <= 0.0 or offset >= carrier_nm:
        raise InvariantError(f"modulated_carrier_source: invalid sideband offset {offset} nm")
    if len(intensity_split) != 3:
        raise InvariantError("modulated_carrier_source: intensity_split needs 3 weights")
    w_lower, w_carrier, w_upper = (float(w) for w in intensity_split)
    return SourceSpec(
        (
            SpectralLine(carrier_nm - offset, w_lower, _pure_density(m_lower, "m_lower")),
            SpectralLine(carrier_nm, w_carrier, _pure_density(m_carrier, "m_carrier")),
            SpectralLine(carrier_nm + offset, w_upper, _pure_density(m_upper, "m_upper")),
        )
    )


def great_circle_pair(circle_index: int, base_angle_deg: float, separation_deg: float):
    """Two unit PoincareVectors on the same great circle separated by ``separation_deg``."""
    v = great_circle_vectors([circle_index] * 2, [base_angle_deg, base_angle_deg + separation_deg])
    return PoincareVector.from_array(v[0]), PoincareVector.from_array(v[1])


def static_trace(src: SourceSpec, n_samples: int, dt_s: float) -> PolarizationTrace:
    """``src`` held for ``n_samples`` samples (broadcast, not copied)."""
    if n_samples < 1:
        raise InvariantError("static_trace: n_samples must be >= 1")
    mvecs = np.array([poincare_components(line.polarization) for line in src.lines])
    return PolarizationTrace(
        dt_s,
        np.array(src.wavelengths_nm(), dtype=float),
        np.broadcast_to(np.array(src.intensities(), dtype=float), (n_samples, len(mvecs))),
        np.broadcast_to(mvecs, (n_samples,) + mvecs.shape),
    )


def _rotate_lines(src: SourceSpec, axis, angles: Sequence[float]) -> SourceSpec:
    """Rotate each line's state about one axis by its own angle."""
    return SourceSpec(
        tuple(
            SpectralLine(
                line.wavelength_nm,
                line.intensity,
                density_from_poincare(rotate_poincare(line.poincare(), axis, angle)),
            )
            for line, angle in zip(src.lines, angles)
        )
    )


@dataclass(frozen=True)
class FiberState:
    """Instantaneous birefringence: rotation axis on the Poincare sphere and
    the rotation angle at a reference wavelength."""

    axis: tuple[float, float, float]
    retardance_ref_rad: float
    ref_wavelength_nm: float

    def __post_init__(self) -> None:
        _unit_axis(self.axis)  # validates; the axis is kept as given, not renormalised
        if not math.isfinite(self.retardance_ref_rad):
            raise InvariantError("FiberState: retardance must be finite")
        if not (math.isfinite(self.ref_wavelength_nm) and self.ref_wavelength_nm > 0.0):
            raise InvariantError("FiberState: reference wavelength must be > 0")


def apply_fiber(src: SourceSpec, fiber: FiberState) -> SourceSpec:
    """Rotate each line about the fiber axis by its wavelength's retardance,
    theta_ref * lambda_ref / lambda."""
    if fiber.retardance_ref_rad == 0.0:
        return src
    return _rotate_lines(
        src,
        fiber.axis,
        [fiber.retardance_ref_rad * fiber.ref_wavelength_nm / line.wavelength_nm for line in src.lines],
    )


def evolve(
    fiber: FiberState,
    dt_s: float,
    chan: ChannelSettings,
    rng: np.random.Generator,
) -> FiberState:
    """One stochastic step of the shaking process of the channel section
    ``chan``; pure in (state, rng draw).

    Two trajectories driven by generators seeded identically are identical.
    """
    if dt_s <= 0.0:
        raise InvariantError("evolve: dt_s must be > 0")

    a1, a2, a3 = fiber.axis
    if chan.axis_diffusion_rad2_per_s > 0.0:
        scale = math.sqrt(chan.axis_diffusion_rad2_per_s * dt_s)
        g = rng.standard_normal(3)
        g1, g2, g3 = scale * g[0], scale * g[1], scale * g[2]
        radial = g1 * a1 + g2 * a2 + g3 * a3
        b1 = a1 + g1 - radial * a1
        b2 = a2 + g2 - radial * a2
        b3 = a3 + g3 - radial * a3
        n = math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
        a1, a2, a3 = b1 / n, b2 / n, b3 / n

    retardance = fiber.retardance_ref_rad
    if chan.retardance_sigma_rad > 0.0:
        a = math.exp(-dt_s / chan.correlation_time_s)
        mu, sigma = chan.retardance_mean_rad, chan.retardance_sigma_rad
        retardance = mu + (retardance - mu) * a + sigma * math.sqrt(1.0 - a * a) * float(rng.standard_normal())

    return FiberState(
        axis=(a1, a2, a3),
        retardance_ref_rad=retardance,
        ref_wavelength_nm=fiber.ref_wavelength_nm,
    )


def apply_pmd(src: SourceSpec, dgd_s: float, axis, carrier_nm: float) -> SourceSpec:
    """First-order PMD of differential group delay ``dgd_s`` about the
    principal ``axis``: each line turns by 2*pi*(nu - nu_carrier)*DGD."""
    _unit_axis(axis)  # validates; the axis is kept as given, not renormalised
    if not (math.isfinite(dgd_s) and dgd_s >= 0.0):
        raise InvariantError("apply_pmd: dgd_s must be >= 0")
    turns = pmd_turns(src.wavelengths_nm(), carrier_nm)
    if dgd_s == 0.0:
        return src
    return _rotate_lines(src, axis, [turn * dgd_s for turn in turns.tolist()])


def angle_preservation_error(src: SourceSpec, fiber: FiberState) -> float:
    """|sphere angle after - before| for a two-line beam through the fiber.

    Bounded by the retardance difference across the two wavelengths, which is
    what makes a shaken fiber DOP-preserving for small birefringence.
    """
    if len(src.lines) != 2:
        raise InvariantError("angle_preservation_error: source must have exactly 2 lines")
    before = poincare_angle(src.lines[0].poincare(), src.lines[1].poincare())
    out = apply_fiber(src, fiber)
    after = poincare_angle(out.lines[0].poincare(), out.lines[1].poincare())
    return abs(after - before)


def singlet_meter_dop(
    trace: PolarizationTrace, cfg: MeterConfig, rng: np.random.Generator | None = None
) -> MeterDopEstimate:
    """Per-sample DOP estimate of one beam: forward readout plus model inversion."""
    if trace.intensities.ndim != 2:
        raise InvariantError("singlet_meter_dop: reads one beam, not a batch")
    table = pair_table(trace.wavelengths, trace.intensities[0], cfg)
    return invert_meter_readout(singlet_meter_raw(trace, cfg, rng, table), cfg, table)


def mean_contamination(pairs: Sequence[tuple[int, int, float]], intensities: Sequence[float]) -> float:
    """The pairs' contamination averaged with their intensity products
    I_i I_j as weights."""
    ivals = np.asarray(intensities, dtype=float)
    pair_weights = np.array([ivals[i] * ivals[j] for i, j, _ in pairs])
    if pair_weights.sum() <= 0.0:
        raise InvariantError("mean_contamination: participating pairs carry no intensity")
    return float(np.average([c for _, _, c in pairs], weights=pair_weights))


def pair_normalization(intensities: Sequence[float]) -> float:
    """Cross-pair statistics factor k = 1 - sum(w_i^2) with w_i the intensity
    fractions; relates the distinct-pair projection average to the beam's
    (1 - DOP^2)/4.  Equals 2 I1 I2 / (I1 + I2)^2 for two lines."""
    w = np.asarray(intensities, dtype=float)
    total = w.sum()
    if total <= 0.0:
        raise InvariantError("pair_normalization: total intensity must be > 0")
    w = w / total
    return float(1.0 - (w**2).sum())


def trace_from_snapshots(dt_s: float, snapshots: Sequence[SourceSpec]) -> PolarizationTrace:
    """One sample per beam snapshot; every snapshot must share the first's wavelengths."""
    if not snapshots:
        raise InvariantError("PolarizationTrace: need at least one sample")
    wavelengths = snapshots[0].wavelengths_nm()
    for i, snap in enumerate(snapshots[1:], start=1):
        if snap.wavelengths_nm() != wavelengths:
            raise InvariantError(
                f"PolarizationTrace: snapshot {i} changes the line wavelengths"
            )
    return PolarizationTrace(
        dt_s,
        np.array(wavelengths, dtype=float),
        np.array([snap.intensities() for snap in snapshots], dtype=float),
        np.array(
            [[poincare_components(line.polarization) for line in snap.lines] for snap in snapshots]
        ),
    )
