"""Time-dependent fiber birefringence between source and instruments.

The fiber at any instant is one birefringent element: a rotation of every
line's Poincare vector about a common axis, with rotation angle inversely
proportional to wavelength (fixed optical path difference).  Mechanical
shaking is modeled as the simplest stationary processes with one timescale
knob each: spherical Brownian motion of the axis plus a mean-reverting
(Ornstein-Uhlenbeck) retardance.  First-order polarization mode dispersion is
a rotation whose angle is linear in optical frequency offset (``pmd_turns``).

A run of fiber states is arrays: ``evolve_window`` walks the process for n
steps, ``fiber_trace`` turns a beam through each state.  Because the same
rotation applied to both lines preserves their relative sphere angle,
shaking leaves the beam DOP nearly invariant as long as the retardance
difference across the line spacing stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instruments import PolarizationTrace
from .polcore import InvariantError, _unit_axis, poincare_round_trip, rotate_poincare_many
from .sources import SPEED_OF_LIGHT_M_PER_S


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


def fiber_trace(
    wavelengths_nm: Sequence[float],
    intensities: Sequence[float],
    lines: np.ndarray,
    axes: np.ndarray,
    retardances: np.ndarray,
    ref_wavelength_nm: float,
    dt_s: float,
) -> PolarizationTrace:
    """The beam of L lines -- ``wavelengths_nm`` and ``intensities`` (L,),
    Poincare vectors ``lines`` (L, 3) -- behind n fiber states,
    (axes[t], retardances[t]) at the reference wavelength: sample t turns
    each line about axes[t] by retardances[t] * ref_wavelength_nm /
    wavelength, and a zero retardance leaves the lines as given.
    ``tests/oracles.py`` holds the per-state reference, ``apply_fiber``.
    The trace's Poincare vectors are a view of (L, 3, n) storage, as
    ``rotate_poincare_many`` makes them, so each line's component is one
    contiguous run of samples."""
    wavelengths = np.array(wavelengths_nm, dtype=float)
    lines = np.asarray(lines, dtype=float)
    # (L, n): line l turns by retardances * ref_wavelength_nm / wavelengths[l]
    angles = (retardances * ref_wavelength_nm) / wavelengths[:, None]
    mvecs = poincare_round_trip(rotate_poincare_many(lines, axes, angles.T))
    mvecs[retardances == 0.0] = lines
    intensities = np.broadcast_to(np.array(intensities, dtype=float), mvecs.shape[:2])
    return PolarizationTrace(dt_s, wavelengths, intensities, mvecs)


def evolve_window(
    fiber: FiberState,
    dt_s: float,
    n_steps: int,
    process: FluctuationProcess,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """n_steps successive steps of the shaking process from fiber: axes
    (n, 3), retardances (n,); row t is the state after t + 1 steps.

    A step adds a tangent-plane Gaussian kick of per-component variance
    axis_diffusion * dt to the axis and renormalises it, then moves the
    retardance by the exact Ornstein-Uhlenbeck update.  Each step takes three
    normals for the axis, then one for the retardance (none for a frozen
    component), all from one bulk draw, so a run split into consecutive calls
    equals one call bit for bit.  ``tests/oracles.py`` holds the one-step
    reference, ``evolve``.
    """
    if dt_s <= 0.0:
        raise InvariantError("evolve_window: dt_s must be > 0")
    diffuse = process.axis_diffusion_rad2_per_s > 0.0
    revert = process.retardance_sigma_rad > 0.0
    scale = math.sqrt(process.axis_diffusion_rad2_per_s * dt_s)
    a = math.exp(-dt_s / process.correlation_time_s)
    mu = process.retardance_mean_rad
    kick = process.retardance_sigma_rad * math.sqrt(1.0 - a * a)
    # row t holds step t's kicks: scale * (three normals), kick * (one normal);
    # a product that overflows is left to the finite-state check below, as
    # in plain float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        kicks = rng.standard_normal((n_steps, 3 * diffuse + revert)) * ([scale] * 3 * diffuse + [kick] * revert)

    a1, a2, a3 = fiber.axis
    if diffuse:
        axes = []
        draws = iter(kicks[:, :3].ravel().tolist())
        for g1, g2, g3 in zip(draws, draws, draws):
            radial = g1 * a1 + g2 * a2 + g3 * a3
            b1 = a1 + g1 - radial * a1
            b2 = a2 + g2 - radial * a2
            b3 = a3 + g3 - radial * a3
            n = math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
            a1, a2, a3 = b1 / n, b2 / n, b3 / n
            axes += (a1, a2, a3)
    else:
        axes = [a1, a2, a3] * n_steps
    retardance = fiber.retardance_ref_rad
    if revert:
        retardances = []
        for z in kicks[:, -1].tolist():
            retardance = mu + (retardance - mu) * a + z
            retardances.append(retardance)
    else:
        retardances = [retardance] * n_steps
    axes, retardances = np.array(axes, dtype=float).reshape(n_steps, 3), np.array(retardances, dtype=float)
    if not (np.all(np.isfinite(axes)) and np.all(np.isfinite(retardances))):
        raise InvariantError("evolve_window: fiber state left the finite range")
    return axes, retardances


def pmd_turns(wavelengths_nm: Sequence[float], carrier_nm: float) -> np.ndarray:
    """First-order PMD rotation angle per second of DGD for each line,
    2*pi*(nu - nu_carrier): (L,).  A DGD of tau turns line l by turns[l] * tau."""
    if carrier_nm <= 0.0:
        raise InvariantError("pmd_turns: carrier_nm must be > 0")
    nu_carrier = SPEED_OF_LIGHT_M_PER_S / (carrier_nm * 1e-9)
    return np.array(
        [2.0 * math.pi * (SPEED_OF_LIGHT_M_PER_S / (w * 1e-9) - nu_carrier) for w in wavelengths_nm]
    )
