"""Time-dependent fiber birefringence between source and instruments.

The fiber at any instant is one birefringent element: a rotation of every
line's Poincare vector about a common axis, with rotation angle inversely
proportional to wavelength (fixed optical path difference).  Mechanical
shaking is modeled as the simplest stationary processes with one timescale
knob each: spherical Brownian motion of the axis plus a mean-reverting
(Ornstein-Uhlenbeck) retardance.  First-order polarization mode dispersion is
a rotation whose angle is linear in optical frequency offset (``pmd_turns``).

The channel's config section, ``ChannelSettings``, holds the process's
statistics, and a run of fiber states is plain arrays: ``evolve_window``
walks the process for n steps from an (axis, retardance) state,
``fiber_trace`` turns the beam's lines through each state.  Because the same
rotation applied to both lines preserves their relative sphere angle,
shaking leaves the beam DOP nearly invariant as long as the retardance
difference across the line spacing stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .polcore import InvariantError, poincare_round_trip, rotate_poincare_many
from .sources import SPEED_OF_LIGHT_M_PER_S


@dataclass(frozen=True)
class ChannelSettings:
    """The ``channel`` section of a shake config: the fiber's initial state
    and its stationary shaking statistics.

    The axis starts at ``axis`` and performs a random walk on the sphere
    (tangent-plane Gaussian steps of per-component variance axis_diffusion *
    dt, then renormalized), decorrelating in about 1/axis_diffusion seconds.
    The retardance at the reference wavelength (``ref_wavelength_nm``, or the
    shortest line's when None) is an exact-discretization Ornstein-Uhlenbeck
    process starting at and reverting to retardance_mean_rad, with stationary
    standard deviation retardance_sigma_rad and correlation time
    correlation_time_s.  A zero sigma (or zero diffusion) disables that
    component entirely, freezing it.  ``seed`` replaces the channel stream
    derived from the run's seed.  The config's read rules and ``check``
    enforce the ranges.
    """

    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    retardance_mean_rad: float = 2.5
    retardance_sigma_rad: float = 0.5
    axis_diffusion_rad2_per_s: float = 10.0
    correlation_time_s: float = 0.1
    ref_wavelength_nm: float | None = None
    seed: int | None = None


def fiber_trace(
    wavelengths_nm: Sequence[float],
    lines: np.ndarray,
    axes: np.ndarray,
    retardances: np.ndarray,
    ref_wavelength_nm: float,
) -> np.ndarray:
    """The Poincare vectors (n, L, 3) of L lines -- at ``wavelengths_nm``
    (L,), with Poincare vectors ``lines`` (L, 3) -- behind n fiber states,
    (axes[t], retardances[t]) at the reference wavelength: sample t turns
    each line about axes[t] by retardances[t] * ref_wavelength_nm /
    wavelength, and a zero retardance leaves the lines as given.
    ``tests/oracles.py`` holds the per-state reference, ``apply_fiber``.
    The result is a view of (L, 3, n) storage, as ``rotate_poincare_many``
    makes it, so each line's component is one contiguous run of samples."""
    wavelengths = np.asarray(wavelengths_nm, dtype=float)
    lines = np.asarray(lines, dtype=float)
    # (L, n): line l turns by retardances * ref_wavelength_nm / wavelengths[l]
    angles = (retardances * ref_wavelength_nm) / wavelengths[:, None]
    mvecs = poincare_round_trip(rotate_poincare_many(lines, axes, angles.T))
    mvecs[retardances == 0.0] = lines
    return mvecs


def evolve_window(
    axis: Sequence[float],
    retardance: float,
    dt_s: float,
    n_steps: int,
    chan: ChannelSettings,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """n_steps successive steps of the shaking process ``chan`` from the
    unit ``axis`` (3,) and ``retardance`` at the reference wavelength: axes
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
    diffuse = chan.axis_diffusion_rad2_per_s > 0.0
    revert = chan.retardance_sigma_rad > 0.0
    scale = math.sqrt(chan.axis_diffusion_rad2_per_s * dt_s)
    a = math.exp(-dt_s / chan.correlation_time_s)
    mu = chan.retardance_mean_rad
    kick = chan.retardance_sigma_rad * math.sqrt(1.0 - a * a)
    # row t holds step t's kicks: scale * (three normals), kick * (one normal);
    # a product that overflows is left to the finite-state check below, as
    # in plain float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        kicks = rng.standard_normal((n_steps, 3 * diffuse + revert)) * ([scale] * 3 * diffuse + [kick] * revert)

    a1, a2, a3 = axis
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
