"""Multi-line beam construction.

A beam is a set of monochromatic spectral lines, each with its own intensity
and polarization state.  Lines from independent lasers carry no mutual phase,
so the beam's polarization is the intensity-weighted mixture of the line
states and its DOP follows from the mixture's Poincare vector
(``polcore.mixture_dop_many``).  This module holds the line geometry the
runners build their beams from, and the closed-form two-line DOP that checks
the mixture.
"""

from __future__ import annotations

import math

import numpy as np

from .polcore import InvariantError

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0


def dop_two_pure_lines(intensity1: float, intensity2: float, sphere_angle_rad: float) -> float:
    """Closed-form DOP of two pure lines whose Poincare vectors subtend
    ``sphere_angle_rad`` (the sphere angle, i.e. 2*phi for a physical angle phi):

        sqrt((I1 + I2)^2 - 4 I1 I2 sin^2(phi)) / (I1 + I2)

    Must agree with ``polcore.mixture_dop_many`` on the corresponding two-line
    beam; the pair of routes is kept as a correctness cross-check.
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


#: The three orthogonal great circles used by scan protocols, as index pairs
#: of the Poincare axes spanning each coordinate plane.
GREAT_CIRCLE_PLANES = ((0, 1), (1, 2), (2, 0))


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
