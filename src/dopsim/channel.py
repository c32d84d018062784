"""Time-dependent fiber birefringence between source and instruments.

The fiber at any instant is one birefringent element: a rotation of every
line's Poincare vector about a common axis, with rotation angle inversely
proportional to wavelength (fixed optical path difference).  Mechanical
shaking is modeled as the simplest stationary processes with one timescale
knob each: spherical Brownian motion of the axis plus a mean-reverting
(Ornstein-Uhlenbeck) retardance.  First-order polarization mode dispersion is
a rotation whose angle is linear in optical frequency offset.

Because the same rotation applied to both lines preserves their relative
sphere angle, shaking leaves the beam DOP nearly invariant as long as the
retardance difference across the line spacing stays small; the residual is
quantified by angle_preservation_error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instruments import PolarizationTrace
from .polcore import (
    InvariantError,
    _unit_axis,
    density_from_poincare,
    poincare_angle,
    poincare_round_trip,
    rotate_poincare,
    rotate_poincare_many,
)
from .sources import SPEED_OF_LIGHT_M_PER_S, SourceSpec, SpectralLine


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

    def retardance_at(self, wavelength_nm: float) -> float:
        """Rotation angle at a given wavelength, theta ~ 1/lambda."""
        if wavelength_nm <= 0.0:
            raise InvariantError("retardance_at: wavelength must be > 0")
        return self.retardance_ref_rad * self.ref_wavelength_nm / wavelength_nm


@dataclass(frozen=True)
class FluctuationProcess:
    """Stationary shaking statistics.

    The axis performs a random walk on the sphere (tangent-plane Gaussian
    steps of per-component variance axis_diffusion * dt, then renormalized),
    decorrelating in about 1/axis_diffusion seconds.  The retardance is an
    exact-discretization Ornstein-Uhlenbeck process reverting to
    retardance_mean_rad with stationary standard deviation
    retardance_sigma_rad and correlation time correlation_time_s.  A zero
    sigma (or zero diffusion) disables that component entirely, freezing it.
    """

    correlation_time_s: float
    axis_diffusion_rad2_per_s: float
    retardance_sigma_rad: float
    retardance_mean_rad: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.correlation_time_s) and self.correlation_time_s > 0.0):
            raise InvariantError("FluctuationProcess: correlation_time_s must be > 0")
        if self.axis_diffusion_rad2_per_s < 0.0 or self.retardance_sigma_rad < 0.0:
            raise InvariantError("FluctuationProcess: rates must be >= 0")
        if not math.isfinite(self.retardance_mean_rad):
            raise InvariantError("FluctuationProcess: retardance mean must be finite")


@dataclass(frozen=True)
class PmdElement:
    """First-order PMD: differential group delay about a fixed principal axis."""

    dgd_s: float
    axis: tuple[float, float, float]

    def __post_init__(self) -> None:
        _unit_axis(self.axis)  # validates; the axis is kept as given, not renormalised
        if not (math.isfinite(self.dgd_s) and self.dgd_s >= 0.0):
            raise InvariantError("PmdElement: dgd_s must be >= 0")


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


def apply_fiber(src: SourceSpec, fiber: FiberState) -> SourceSpec:
    """Rotate each line about the fiber axis by its wavelength's retardance."""
    if fiber.retardance_ref_rad == 0.0:
        return src
    return _rotate_lines(
        src, fiber.axis, [fiber.retardance_at(line.wavelength_nm) for line in src.lines]
    )


def fiber_trace(
    src: SourceSpec,
    axes: np.ndarray,
    retardances: np.ndarray,
    ref_wavelength_nm: float,
    dt_s: float,
) -> PolarizationTrace:
    """The beam behind n fiber states, (axes[t], retardances[t]) at the
    reference wavelength: sample t equals apply_fiber on that state, bit for bit."""
    states = [line.poincare() for line in src.lines]
    wavelengths = np.array(src.wavelengths_nm(), dtype=float)
    angles = retardances[:, None] * ref_wavelength_nm / wavelengths
    rotated = poincare_round_trip(rotate_poincare_many(states, axes, angles))
    unrotated = np.array([m.as_array() for m in states])
    mvecs = np.where((retardances == 0.0)[:, None, None], unrotated, rotated)
    intensities = np.broadcast_to(np.array(src.intensities(), dtype=float), mvecs.shape[:2])
    return PolarizationTrace(dt_s, wavelengths, intensities, mvecs)


def evolve(
    fiber: FiberState,
    dt_s: float,
    process: FluctuationProcess,
    rng: np.random.Generator,
) -> FiberState:
    """One stochastic step of the shaking process; pure in (state, rng draw).

    Two trajectories driven by generators seeded identically are identical.
    """
    if dt_s <= 0.0:
        raise InvariantError("evolve: dt_s must be > 0")

    a1, a2, a3 = fiber.axis
    if process.axis_diffusion_rad2_per_s > 0.0:
        scale = math.sqrt(process.axis_diffusion_rad2_per_s * dt_s)
        g = rng.standard_normal(3)
        g1, g2, g3 = scale * g[0], scale * g[1], scale * g[2]
        radial = g1 * a1 + g2 * a2 + g3 * a3
        b1 = a1 + g1 - radial * a1
        b2 = a2 + g2 - radial * a2
        b3 = a3 + g3 - radial * a3
        n = math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
        a1, a2, a3 = b1 / n, b2 / n, b3 / n

    retardance = fiber.retardance_ref_rad
    if process.retardance_sigma_rad > 0.0:
        a = math.exp(-dt_s / process.correlation_time_s)
        mu, sigma = process.retardance_mean_rad, process.retardance_sigma_rad
        retardance = mu + (retardance - mu) * a + sigma * math.sqrt(1.0 - a * a) * float(rng.standard_normal())

    return FiberState(
        axis=(a1, a2, a3),
        retardance_ref_rad=retardance,
        ref_wavelength_nm=fiber.ref_wavelength_nm,
    )


def evolve_window(
    fiber: FiberState,
    dt_s: float,
    n_steps: int,
    process: FluctuationProcess,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """n_steps successive evolve() steps from fiber: axes (n, 3), retardances (n,).

    One bulk draw takes the same normals, in the same order, as n_steps calls
    of evolve (three for the axis, then one for the retardance, per step; none
    for a frozen component), and the loop keeps evolve's operation order, so
    row t equals the state after t + 1 evolve() calls bit for bit.
    """
    if dt_s <= 0.0:
        raise InvariantError("evolve_window: dt_s must be > 0")
    diffuse = process.axis_diffusion_rad2_per_s > 0.0
    revert = process.retardance_sigma_rad > 0.0
    draws = iter(rng.standard_normal((3 * diffuse + revert) * n_steps).tolist())
    scale = math.sqrt(process.axis_diffusion_rad2_per_s * dt_s)
    a = math.exp(-dt_s / process.correlation_time_s)
    mu = process.retardance_mean_rad
    kick = process.retardance_sigma_rad * math.sqrt(1.0 - a * a)

    a1, a2, a3 = fiber.axis
    retardance = fiber.retardance_ref_rad
    path = []
    for _ in range(n_steps):
        if diffuse:
            g1, g2, g3 = scale * next(draws), scale * next(draws), scale * next(draws)
            radial = g1 * a1 + g2 * a2 + g3 * a3
            b1 = a1 + g1 - radial * a1
            b2 = a2 + g2 - radial * a2
            b3 = a3 + g3 - radial * a3
            n = math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
            a1, a2, a3 = b1 / n, b2 / n, b3 / n
        if revert:
            retardance = mu + (retardance - mu) * a + kick * next(draws)
        path.append((a1, a2, a3, retardance))
    states = np.array(path, dtype=float).reshape(n_steps, 4)
    if not np.all(np.isfinite(states)):
        raise InvariantError("evolve_window: fiber state left the finite range")
    return states[:, :3], states[:, 3]


def pmd_turns(wavelengths_nm: Sequence[float], carrier_nm: float) -> np.ndarray:
    """First-order PMD rotation angle per second of DGD for each line,
    2*pi*(nu - nu_carrier): (L,).  A DGD of tau turns line l by turns[l] * tau."""
    if carrier_nm <= 0.0:
        raise InvariantError("pmd_turns: carrier_nm must be > 0")
    nu_carrier = SPEED_OF_LIGHT_M_PER_S / (carrier_nm * 1e-9)
    return np.array(
        [2.0 * math.pi * (SPEED_OF_LIGHT_M_PER_S / (w * 1e-9) - nu_carrier) for w in wavelengths_nm]
    )


def apply_pmd(src: SourceSpec, element: PmdElement, carrier_nm: float) -> SourceSpec:
    """Rotate each line about the principal axis by 2*pi*(nu - nu_carrier)*DGD."""
    turns = pmd_turns(src.wavelengths_nm(), carrier_nm)
    if element.dgd_s == 0.0:
        return src
    return _rotate_lines(src, element.axis, [turn * element.dgd_s for turn in turns.tolist()])


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
