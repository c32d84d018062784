"""Multi-line beam construction.

A beam is a set of monochromatic spectral lines, each with its own intensity
and polarization state.  Lines from independent lasers carry no mutual phase,
so the beam's polarization is the intensity-weighted mixture of the line
states and its DOP follows from the mixture's Poincare vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polcore import (
    ATOL_INPUT,
    DensityMatrix,
    InvariantError,
    PoincareVector,
    density_from_poincare,
    dop,
    mix,
    poincare_from_density,
)

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

#: Generic sideband pattern for an intensity-modulated carrier.
DEFAULT_INTENSITY_SPLIT = (0.25, 0.5, 0.25)


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


def _pure_density(m: PoincareVector, name: str) -> DensityMatrix:
    if abs(m.norm() - 1.0) > ATOL_INPUT:
        raise InvariantError(f"{name}: |M| = {m.norm():.12g}, laser lines must be pure (|M| = 1)")
    return density_from_poincare(m)


def two_laser_source(
    lambda1_nm: float,
    lambda2_nm: float,
    intensity1: float,
    intensity2: float,
    m1: PoincareVector,
    m2: PoincareVector,
) -> SourceSpec:
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


def dop_two_pure_lines(intensity1: float, intensity2: float, sphere_angle_rad: float) -> float:
    """Closed-form DOP of two pure lines whose Poincare vectors subtend
    ``sphere_angle_rad`` (the sphere angle, i.e. 2*phi for a physical angle phi):

        sqrt((I1 + I2)^2 - 4 I1 I2 sin^2(phi)) / (I1 + I2)

    Must agree with source_dop of the corresponding two-line beam; the pair of
    routes is kept as a correctness cross-check.
    """
    total = intensity1 + intensity2
    if total <= 0.0:
        raise InvariantError("dop_two_pure_lines: total intensity must be > 0")
    s = math.sin(sphere_angle_rad / 2.0)
    radicand = total**2 - 4.0 * intensity1 * intensity2 * s * s
    return math.sqrt(max(0.0, radicand)) / total


def modulation_wavelength_offset_nm(carrier_nm: float, bitrate_hz: float) -> float:
    """Sideband offset |d lambda| = lambda^2 * f / c for modulation frequency f."""
    if carrier_nm <= 0.0:
        raise InvariantError("modulation_wavelength_offset_nm: carrier_nm must be > 0")
    return carrier_nm**2 * bitrate_hz / SPEED_OF_LIGHT_M_PER_S * 1e-9


def modulated_carrier_source(
    carrier_nm: float,
    bitrate_hz: float,
    m_lower: PoincareVector,
    m_carrier: PoincareVector,
    m_upper: PoincareVector,
    intensity_split: tuple[float, float, float] = DEFAULT_INTENSITY_SPLIT,
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


#: The three orthogonal great circles used by scan protocols, as index pairs
#: of the Poincare axes spanning each coordinate plane.
GREAT_CIRCLE_PLANES = ((0, 1), (1, 2), (2, 0))


def great_circle_pair(
    circle_index: int, base_angle_deg: float, separation_deg: float
) -> tuple[PoincareVector, PoincareVector]:
    """Two unit vectors on the same great circle separated by ``separation_deg``."""
    v = great_circle_vectors([circle_index] * 2, [base_angle_deg, base_angle_deg + separation_deg])
    return PoincareVector.from_array(v[0]), PoincareVector.from_array(v[1])


def great_circle_vectors(circle_indices, angles_deg) -> np.ndarray:
    """Point k lies ``angles_deg[k]`` of arc along great circle
    ``circle_indices[k]`` from the plane's first coordinate axis: (P, 3).

    The vectors are unvalidated arrays; ``polcore.check_pure_states``
    checks them in bulk.
    """
    circles = np.asarray(circle_indices, dtype=int)
    if not np.all(np.isin(circles, (0, 1, 2))):
        raise InvariantError("great_circle_vectors: circle indices must be 0, 1 or 2")
    angles = np.asarray(angles_deg, dtype=float) * (math.pi / 180.0)  # math.radians
    planes = np.array(GREAT_CIRCLE_PLANES)[circles]
    rows = np.arange(len(angles))
    v = np.zeros((len(angles), 3))
    v[rows, planes[:, 0]] = np.cos(angles)
    v[rows, planes[:, 1]] = np.sin(angles)
    return v
