"""Virtual measurement devices.

Two instruments read the same discretized polarization signal:

* ``polarimeter_dop`` -- the indirect route: average the four Stokes
  components over an integration window, then compute |S123|/S0.  Averaging
  Stokes vectors of a fluctuating state can only shrink the mean vector, so
  a scrambled beam reads artificially depolarized.

* ``singlet_meter_raw`` and ``invert_meter_readout`` -- the direct route: a
  parametric model of a coherent pair-projection meter built from two stages
  of walk-off-compensated type II nonlinear crystals.  Stage one upconverts a
  cross-wavelength photon pair to an H photon, stage two (rotated by 90 deg)
  to a V photon; behind a 45 deg polarizer the two amplitudes interfere, and
  at the destructive stage phase the upconverted intensity measures the
  pair's singlet fraction (1 - M_a.M_b)/4.

The crystal stack enters through three numbers: the effective interaction
length (element length times elements per stage, walk-off fully
compensated), the phase-matching acceptance bandwidth (inverse in effective
length, anchored to 4.5 nm at 12 mm), and the efficiency of an undesired
degenerate conversion that competes when the two wavelengths approach closer
than a minimum separation.  That undesired process is polarization-blind, so
its contribution is modeled as mixing the pair probability toward the
fully-depolarized value 1/4:

    p_eff = (1 - c) * p_pair + c / 4,   c = sinc^2(pi * d_lambda / acceptance)

with c applied only below the minimum-separation threshold where the
degenerate phase matching coexists.

Readout imperfections follow the minimal affine model

    r = gain * [(1 - V)/2 + V * p_eff] + dark + multiplicative noise,

chosen so that V = 1 recovers the ideal meter and a fully polarized beam
leaves the interference residual (1 - V)/2 * gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .polcore import DopsimError, InvariantError, NumericsError


@dataclass(frozen=True)
class CrystalStack:
    """Walk-off-compensated stack: two stages of identical nonlinear elements."""

    element_length_mm: float = 3.0
    elements_per_stage: int = 4
    stages: int = 2
    reference_acceptance_nm: float = 4.5
    reference_length_mm: float = 12.0

    def __post_init__(self) -> None:
        if self.element_length_mm <= 0.0:
            raise InvariantError("CrystalStack: element_length_mm must be > 0")
        if self.elements_per_stage < 1:
            raise InvariantError("CrystalStack: elements_per_stage must be >= 1")
        if self.stages != 2:
            raise InvariantError("CrystalStack: the two-stage interferometric design is fixed")
        if self.reference_acceptance_nm <= 0.0 or self.reference_length_mm <= 0.0:
            raise InvariantError("CrystalStack: reference acceptance and length must be > 0")


def effective_length(stack: CrystalStack) -> float:
    """Effective interaction length per stage in mm; walk-off is fully
    compensated so it grows linearly with the element count."""
    return stack.element_length_mm * stack.elements_per_stage


def acceptance_bandwidth(stack: CrystalStack) -> float:
    """Phase-matching wavelength acceptance in nm, inverse in effective length."""
    return stack.reference_acceptance_nm * stack.reference_length_mm / effective_length(stack)


def degenerate_contamination(lambda1_nm: float, lambda2_nm: float, stack: CrystalStack) -> float:
    """Relative efficiency of the undesired degenerate conversion for a line
    pair, sinc^2(pi * d_lambda / acceptance): 1 at zero separation, ~0 far out."""
    if lambda1_nm == lambda2_nm:
        raise InvariantError("degenerate_contamination: wavelengths must differ")
    x = abs(lambda1_nm - lambda2_nm) / acceptance_bandwidth(stack)
    return float(np.sinc(x) ** 2)


@dataclass(frozen=True)
class MeterConfig:
    stack: CrystalStack = field(default_factory=CrystalStack)
    visibility: float = 0.96
    stage_phase_rad: float = 0.0
    gain: float = 1.0
    dark_offset: float = 0.0
    noise_sigma_rel: float = 0.0
    response_time_s: float = 1e-3
    min_separation_nm: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise InvariantError(f"MeterConfig: visibility {self.visibility} not in [0, 1]")
        if self.gain <= 0.0:
            raise InvariantError("MeterConfig: gain must be > 0")
        if self.response_time_s <= 0.0:
            raise InvariantError("MeterConfig: response_time_s must be > 0")
        if self.noise_sigma_rel < 0.0:
            raise InvariantError("MeterConfig: noise_sigma_rel must be >= 0")
        if self.min_separation_nm < 0.0:
            raise InvariantError("MeterConfig: min_separation_nm must be >= 0")


@dataclass(frozen=True)
class PolarimeterConfig:
    #: None: one integration window per trace
    integration_time_s: float | None = None
    noise_sigma_rel: float = 0.0

    def __post_init__(self) -> None:
        if self.integration_time_s is not None and self.integration_time_s <= 0.0:
            raise InvariantError("PolarimeterConfig: integration_time_s must be > 0")
        if self.noise_sigma_rel < 0.0:
            raise InvariantError("PolarimeterConfig: noise_sigma_rel must be >= 0")


@dataclass(frozen=True, eq=False)
class PolarizationTrace:
    """Uniformly sampled beam with a fixed line structure, as arrays.

    ``wavelengths`` is (L,), ``intensities`` (n, L) and ``poincare`` the
    lines' Poincare vectors (n, L, 3).  A batch of P beams of one line set
    and one length puts a leading axis on both, (P, n, L) and (P, n, L, 3);
    the meter and the polarimeter read a batch in one call, each beam on its
    own.  ``len`` is the number of samples n.  Construction checks the
    shapes; the values must meet the per-line invariants (finite,
    intensities >= 0, |M| <= 1 + 1e-12), which the harness and
    ``channel.fiber_trace`` check in bulk.
    """

    dt_s: float
    wavelengths: np.ndarray
    intensities: np.ndarray
    poincare: np.ndarray

    def __post_init__(self) -> None:
        if not self.dt_s > 0.0:
            raise InvariantError("PolarizationTrace: dt_s must be > 0")
        n_lines = len(self.wavelengths)
        if self.intensities.ndim not in (2, 3) or self.intensities.shape[-1] != n_lines or n_lines < 1:
            raise InvariantError("PolarizationTrace: intensities must be ([beams,] samples, lines)")
        if self.poincare.shape != self.intensities.shape + (3,):
            raise InvariantError("PolarizationTrace: poincare must be ([beams,] samples, lines, 3)")
        if self.intensities.shape[-2] < 1:
            raise InvariantError("PolarizationTrace: need at least one sample")

    def __len__(self) -> int:
        return self.intensities.shape[-2]

    @classmethod
    def held(
        cls, dt_s: float, wavelengths_nm, intensities, poincare: np.ndarray, n_samples: int
    ) -> "PolarizationTrace":
        """A batch of P beams of one line set, each held for ``n_samples``
        samples (broadcast, not copied): ``intensities`` (L,) are shared,
        ``poincare`` (P, L, 3) holds each beam's line vectors."""
        if n_samples < 1:
            raise InvariantError("PolarizationTrace.held: n_samples must be >= 1")
        n_beams, n_lines = poincare.shape[:2]
        return cls(
            dt_s,
            np.asarray(wavelengths_nm, dtype=float),
            np.broadcast_to(np.asarray(intensities, dtype=float), (n_beams, n_samples, n_lines)),
            np.broadcast_to(poincare[:, None], (n_beams, n_samples, n_lines, 3)),
        )


def _trailing_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Causal moving average over up to `window` samples ending at each
    sample of the last axis; no window reaches across another axis."""
    if window <= 1:
        return values
    csum = np.cumsum(values, axis=-1, dtype=float)
    out = np.empty_like(csum)
    out[..., :window] = csum[..., :window]
    out[..., window:] = csum[..., window:] - csum[..., :-window]
    return out / np.minimum(np.arange(1, values.shape[-1] + 1), window)


def two_stage_projector(stage_phase_rad: float = 0.0) -> np.ndarray:
    """Operator realized by the two interfering conversion stages, a
    read-only 4x4 array in the basis (HH, HV, VH, VV): |psi><psi| with
    psi = (|HV> - e^{i phase} |VH>)/sqrt(2).

    The destructive setting (phase 0) is exactly the singlet projector.
    ``polcore.brute_force_trace`` takes it as the oracle of
    ``pair_projection_probability``.
    """
    phase = complex(math.cos(stage_phase_rad), math.sin(stage_phase_rad))
    psi = np.array([0.0, 1.0, -phase, 0.0], dtype=complex) / math.sqrt(2.0)
    op = np.outer(psi, psi.conj())
    op.flags.writeable = False
    return op


def pair_projection_probability(ma: np.ndarray, mb: np.ndarray, stage_phase_rad: float = 0.0) -> np.ndarray:
    """Tr((rho_a x rho_b) . P(phase)) from the Poincare vectors, vectorized
    over leading axes; reduces to (1 - ma.mb)/4 at phase 0."""
    ma = np.asarray(ma, dtype=float)
    mb = np.asarray(mb, dtype=float)
    diag = 0.25 * (1.0 - ma[..., 2] * mb[..., 2])
    cross = (ma[..., 0] - 1.0j * ma[..., 1]) * (mb[..., 0] + 1.0j * mb[..., 1])
    phase = complex(math.cos(stage_phase_rad), math.sin(stage_phase_rad))
    return diag - 0.25 * np.real(phase * cross)


class PairTable(NamedTuple):
    """The participating line pairs of a line set and the inversion
    constants they fix.

    ``pairs`` holds (i, j, contamination) per pair; ``c_bar`` is the
    contamination averaged with the pairs' intensity products I_i I_j as
    weights (NaN when the weights sum to no finite positive value), and
    ``k = 1 - sum(w_i^2)``, with w_i the intensity fractions, relates the
    distinct-pair projection average to the beam's (1 - DOP^2)/4; it is
    2 I1 I2 / (I1 + I2)^2 for two lines.
    """

    pairs: tuple[tuple[int, int, float], ...]
    c_bar: float
    k: float


def pair_table(wavelengths_nm: Sequence[float], intensities: Sequence[float], cfg: MeterConfig) -> PairTable:
    """The pair table of a line set, built once and shared by the meter
    forward model and its inversion.

    A pair converts only within the phase-matching acceptance; the degenerate
    contamination applies below the minimum separation.
    """
    wavelengths = np.asarray(wavelengths_nm, dtype=float)
    acceptance = acceptance_bandwidth(cfg.stack)
    pairs = []
    for i in range(len(wavelengths)):
        for j in range(i + 1, len(wavelengths)):
            separation = abs(wavelengths[i] - wavelengths[j])
            if separation > acceptance:
                continue
            c = 0.0
            if separation < cfg.min_separation_nm:
                c = degenerate_contamination(wavelengths[i], wavelengths[j], cfg.stack)
            pairs.append((i, j, c))
    ivals = np.asarray(intensities, dtype=float)
    # an overflowing weight or total shows as a NaN or infinite constant
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weights = np.array([ivals[i] * ivals[j] for i, j, _ in pairs])
        total = weights.sum()
        c_bar = float(np.average([c for _, _, c in pairs], weights=weights)) if 0.0 < total < math.inf else math.nan
        w = ivals / ivals.sum()
        k = float(1.0 - (w**2).sum())
    return PairTable(tuple(pairs), c_bar, k)


def singlet_meter_raw(
    trace: PolarizationTrace,
    cfg: MeterConfig,
    rng: np.random.Generator | None = None,
    table: PairTable | None = None,
) -> np.ndarray:
    """Readout time series of the pair-projection meter: (n,), or (P, n)
    for a batch of P beams.

    Per sample: pre-average each line's state over the response-time window,
    form the intensity^2-weighted pair projection probability over all
    participating pairs, then apply the affine imperfection model and
    multiplicative noise.  Samples with no convertible pair fall to the dark
    level.  A batch reads as its beams one after another would: the response
    window never reaches across beams, and the noise draws follow beam order.
    ``table`` is the line set's ``pair_table``, built here when not given.
    """
    if len(trace.wavelengths) < 2:
        raise InvariantError("singlet_meter_raw: nothing to upconvert in a single-line beam")
    if cfg.noise_sigma_rel > 0.0 and rng is None:
        raise InvariantError("singlet_meter_raw: noisy config needs an explicit rng")
    if table is None:  # the forward model reads only the pairs, not the intensity-weighted constants
        table = pair_table(trace.wavelengths, np.ones(len(trace.wavelengths)), cfg)

    intensities, mvecs = trace.intensities, trace.poincare
    n_lines, shape = len(trace.wavelengths), intensities.shape[:-1]
    # a window as long as the trace reads like any longer one
    window = max(1, int(round(min(cfg.response_time_s / trace.dt_s, len(trace)))))
    # each line's averaged power and Poincare vector, one sample plane per
    # component: m_avg is a (..., n, L, 3) view of (L, 3, ..., n) storage
    s0 = [_trailing_mean(intensities[..., l], window) for l in range(n_lines)]
    m_avg = np.zeros((n_lines, 3) + shape)
    for l, power in enumerate(s0):
        for k in range(3):
            svec = _trailing_mean(intensities[..., l] * mvecs[..., l, k], window)
            np.divide(svec, power, out=m_avg[l, k], where=power > 0.0)
    m_avg = np.moveaxis(m_avg, (0, 1), (-2, -1))

    weighted = np.zeros(shape)
    weights = np.zeros(shape)
    for i, j, c in table.pairs:
        w = s0[i] * s0[j]
        p = pair_projection_probability(m_avg[..., i, :], m_avg[..., j, :], cfg.stage_phase_rad)
        weighted += w * ((1.0 - c) * p + 0.25 * c)
        weights += w

    p_eff = np.divide(weighted, weights, out=np.zeros(shape), where=weights > 0.0)
    readout = np.where(
        weights > 0.0,
        cfg.gain * ((1.0 - cfg.visibility) / 2.0 + cfg.visibility * p_eff) + cfg.dark_offset,
        cfg.dark_offset,
    )
    if cfg.noise_sigma_rel > 0.0:
        readout = readout * (1.0 + cfg.noise_sigma_rel * rng.standard_normal(shape))
    return readout


@dataclass(frozen=True)
class MeterDopEstimate:
    dop: np.ndarray
    clipped: np.ndarray  # True where the readout sat below the estimable floor


def invert_meter_readout(readout: np.ndarray, cfg: MeterConfig, table: PairTable) -> MeterDopEstimate:
    """Invert the imperfection model to a DOP estimate, with the mean
    contamination ``c_bar`` and the pair normalization ``k`` of the line
    set's ``pair_table``, which must have c_bar < 1.

    Exact on two-line beams; for more lines it assumes pure lines, uniform
    contamination and full pair participation.  Readings below the estimable
    floor (for instance, at or under the dark level) clamp to DOP = 1 and are
    flagged rather than raised.
    """
    if cfg.visibility <= 0.0:
        raise DopsimError("invert_meter_readout: zero visibility carries no signal")
    r = np.asarray(readout, dtype=float)
    p_eff = ((r - cfg.dark_offset) / cfg.gain - (1.0 - cfg.visibility) / 2.0) / cfg.visibility
    p_pair = (p_eff - 0.25 * table.c_bar) / (1.0 - table.c_bar)
    dop_sq = 1.0 - 4.0 * table.k * p_pair
    clipped = dop_sq > 1.0
    dop = np.sqrt(np.clip(dop_sq, 0.0, 1.0))
    return MeterDopEstimate(dop=dop, clipped=clipped)


def polarimeter_dop(
    trace: PolarizationTrace, cfg: PolarimeterConfig, rng: np.random.Generator | None = None
) -> np.ndarray:
    """DOP per integration window from time-averaged Stokes components:
    (windows,), or (P, windows) for a batch of P beams.

    The four averaged components each receive independent relative Gaussian
    noise before the |S123|/S0 division.  Trailing samples that fill no
    whole window are not read.  A batch reads as its beams one after another
    would: no window reaches across beams, and the noise draws follow beam
    order, then window order.
    """
    if cfg.noise_sigma_rel > 0.0 and rng is None:
        raise InvariantError("polarimeter_dop: noisy config needs an explicit rng")
    if cfg.integration_time_s is None:
        window = len(trace)
    else:
        window = int(round(cfg.integration_time_s / trace.dt_s))
    if window < 1 or len(trace) < window:
        raise InvariantError("polarimeter_dop: trace shorter than the integration time")

    # the power and the Stokes vector, the lines summed in order, one sample plane each
    intensities, mvecs = trace.intensities, trace.poincare
    s0 = intensities[..., 0].copy()
    svec = [intensities[..., 0] * mvecs[..., 0, k] for k in range(3)]
    for l in range(1, len(trace.wavelengths)):
        s0 += intensities[..., l]
        for k in range(3):
            svec[k] += intensities[..., l] * mvecs[..., l, k]
    batch, n_windows = s0.shape[:-1], len(trace) // window
    used = n_windows * window
    stokes = np.empty(batch + (n_windows, 4))
    stokes[..., 0] = s0[..., :used].reshape(batch + (n_windows, window)).mean(axis=-1)
    for k in range(3):
        # a running sum adds each window's samples in order, as a mean over
        # (samples, 3) rows does; a mean along contiguous samples sums pairwise
        sums = np.cumsum(svec[k][..., :used].reshape(batch + (n_windows, window)), axis=-1)[..., -1]
        stokes[..., 1 + k] = sums / window
    # an overflow shows as a non-finite DOP, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.noise_sigma_rel > 0.0:
            stokes = stokes * (1.0 + cfg.noise_sigma_rel * rng.standard_normal(stokes.shape))
        if np.any(stokes[..., 0] <= 0.0):
            raise NumericsError("polarimeter_dop: non-positive averaged power")
        # one BLAS dot per window, as np.linalg.norm takes it; a vectorised norm differs in the last bit
        norms = np.array([np.linalg.norm(v) for v in stokes[..., 1:].reshape(-1, 3)])
        dop = norms.reshape(stokes.shape[:-1]) / stokes[..., 0]
    # noise may lift a reading above 1; without it the mean Stokes vector is no longer than its power
    ceiling = math.inf if cfg.noise_sigma_rel > 0.0 else 1.0 + 1e-12
    if not np.all(np.isfinite(dop) & (dop <= ceiling)):
        raise NumericsError("polarimeter_dop: a window's DOP is not finite, or above 1 without noise")
    return dop


@dataclass(frozen=True)
class PairSamplingResult:
    estimate: float
    stderr: float
    draws: int


def mc_pair_singlet(
    intensities, poincare, draws: int, rng: np.random.Generator
) -> PairSamplingResult:
    """Monte Carlo estimate of the singlet-projection probability of the beam
    whose L lines have ``intensities`` (L,) and Poincare vectors
    ``poincare`` (L, 3).

    Draws photon pairs with the intensity-product statistics over ordered
    line pairs (same-line pairs included) and scores Bernoulli projection
    outcomes; the mean converges to (1 - DOP^2)/4 of the mixed beam.
    """
    if draws < 1:
        raise InvariantError("mc_pair_singlet: draws must be >= 1")
    w = np.asarray(intensities, dtype=float)
    w = w / w.sum()
    mvecs = np.asarray(poincare, dtype=float)
    pair_probs = np.outer(w, w).ravel()
    projection = np.clip((0.25 * (1.0 - mvecs @ mvecs.T)).ravel(), 0.0, 1.0)
    counts = rng.multinomial(draws, pair_probs)
    hits = sum(
        int(rng.binomial(count, p)) for count, p in zip(counts, projection) if count > 0
    )
    estimate = hits / draws
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / draws)
    return PairSamplingResult(estimate=estimate, stderr=stderr, draws=draws)


def calibrate_from_references(
    readout_dop1_mean: float,
    readout_dop0_mean: float,
    visibility: float,
    contamination: float = 0.0,
) -> tuple[float, float]:
    """Solve the affine readout model for (gain, dark_offset) from the mean
    readouts of a fully polarized and a fully depolarized balanced two-line
    reference."""
    if not 0.0 < visibility <= 1.0:
        raise InvariantError("calibrate_from_references: visibility must be in (0, 1]")
    if not 0.0 <= contamination < 1.0:
        raise InvariantError("calibrate_from_references: contamination must be in [0, 1)")
    span = readout_dop0_mean - readout_dop1_mean
    if span <= 0.0:
        raise NumericsError("calibrate_from_references: references do not separate")
    gain = 2.0 * span / (visibility * (1.0 - contamination))
    dark = readout_dop1_mean - gain * (
        (1.0 - visibility) / 2.0 + visibility * contamination / 4.0
    )
    return gain, dark
