"""Per-sample reference implementations of the array paths in ``dopsim``.

Each function here takes or returns one beam (``SourceSpec``) or one fiber
state at a time, built from the scalar ``polcore`` operations.  The shipped
array paths -- ``channel.evolve_window``, ``channel.fiber_trace``, the
batched PMD rotation in ``harness.run_pmd_sweep`` and the batched meter
readout -- must equal them bit for bit, which ``test_window_path.py`` and
``test_sweep_batch.py`` check over drawn settings.  The inversion constants
that ``instruments.pair_table`` holds, the mean contamination and the pair
normalization, are here as the meter inversion once computed them per call.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from dopsim.channel import FiberState, FluctuationProcess, pmd_turns
from dopsim.instruments import (
    MeterConfig,
    MeterDopEstimate,
    PolarizationTrace,
    invert_meter_readout,
    pair_table,
    singlet_meter_raw,
)
from dopsim.polcore import (
    InvariantError,
    _unit_axis,
    density_from_poincare,
    poincare_angle,
    poincare_components,
    rotate_poincare,
)
from dopsim.sources import SourceSpec, SpectralLine


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
