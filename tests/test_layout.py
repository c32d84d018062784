"""The array kernels give the same bits whatever the memory order of a beam.

Each kernel runs its operations along the samples, one line and component
at a time, so its result may not depend on how the beam is stored.  Every
kernel here reads one beam in three forms: a C-contiguous array, the same
values stored samples-contiguous and viewed back in the public shape, and a
broadcast ``PolarizationTrace.held`` beam.  The results must agree bit for
bit, compared as int64 words so that a signed zero or a NaN counts too.
"""

import numpy as np
import pytest

from dopsim.channel import fiber_trace
from dopsim.harness import _sphere_angles
from dopsim.instruments import (
    MeterConfig,
    PolarimeterConfig,
    PolarizationTrace,
    pair_table,
    polarimeter_dop,
    singlet_meter_raw,
)
from dopsim.polcore import poincare_round_trip, rotate_poincare_many
from helpers import random_unit_vector

WAVELENGTHS = (1551.0, 1552.5, 1554.0)
INTENSITIES = (0.7, 1.3, 0.4)
BEAMS, SAMPLES = 3, 60


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def samples_contiguous(a: np.ndarray, sample_axis: int) -> np.ndarray:
    """a's values stored with its sample axis innermost, viewed back in a's shape."""
    stored = np.ascontiguousarray(np.moveaxis(a, sample_axis, -1))
    assert stored.flags.c_contiguous
    return np.moveaxis(stored, -1, sample_axis)


def forms(a: np.ndarray, sample_axis: int) -> list[np.ndarray]:
    """The three forms of a held (broadcast) array a."""
    assert 0 in a.strides
    return [np.ascontiguousarray(a), samples_contiguous(a, sample_axis), a]


def held_traces(n_lines: int, dt_s: float = 1e-3) -> list[PolarizationTrace]:
    rng = np.random.default_rng(n_lines)
    vectors = poincare_round_trip([[random_unit_vector(rng) for _ in range(n_lines)] for _ in range(BEAMS)])
    held = PolarizationTrace.held(dt_s, WAVELENGTHS[:n_lines], INTENSITIES[:n_lines], vectors, SAMPLES)
    return [
        PolarizationTrace(dt_s, held.wavelengths, intensities, poincare)
        for intensities, poincare in zip(forms(held.intensities, -2), forms(held.poincare, -3))
    ]


def varying_traces(n_lines: int, dt_s: float = 1e-3) -> list[PolarizationTrace]:
    """A beam that changes from sample to sample, C-contiguous and samples-contiguous."""
    rng = np.random.default_rng(10 + n_lines)
    axes = np.array([random_unit_vector(rng) for _ in range(BEAMS * SAMPLES)])
    lines = poincare_round_trip([random_unit_vector(rng) for _ in range(n_lines)])
    retardances = rng.normal(2.5, 0.5, BEAMS * SAMPLES)
    beam = fiber_trace(WAVELENGTHS[:n_lines], INTENSITIES[:n_lines], lines, axes, retardances, WAVELENGTHS[0], dt_s)
    intensities = rng.uniform(0.0, 2.0, (BEAMS, SAMPLES, n_lines))
    intensities[0, :5] = 0.0  # dark samples, where the meter's mean vector is 0
    poincare = np.ascontiguousarray(beam.poincare).reshape(BEAMS, SAMPLES, n_lines, 3)
    return [
        PolarizationTrace(dt_s, beam.wavelengths, i, p)
        for i, p in ((intensities, poincare), (samples_contiguous(intensities, -2), samples_contiguous(poincare, -3)))
    ]


def all_same(results) -> bool:
    return all(same_bits(results[0], r) for r in results[1:])


@pytest.mark.parametrize("n_lines", [2, 3])
@pytest.mark.parametrize("traces", [held_traces, varying_traces])
@pytest.mark.parametrize(
    "meter",
    [
        MeterConfig(noise_sigma_rel=0.15),
        # a response window of 7 samples: the trailing mean runs
        MeterConfig(response_time_s=7e-3, stage_phase_rad=0.7, noise_sigma_rel=0.1),
        # contaminated pairs, and a window as long as the trace
        MeterConfig(response_time_s=1.0, stage_phase_rad=-2.0, min_separation_nm=5.0),
    ],
)
def test_meter(n_lines, traces, meter):
    results = []
    for trace in traces(n_lines):
        table = pair_table(trace.wavelengths, INTENSITIES[:n_lines], meter)
        results.append(singlet_meter_raw(trace, meter, np.random.default_rng(3), table))
    assert all_same(results)


@pytest.mark.parametrize("n_lines", [2, 3])
@pytest.mark.parametrize("traces", [held_traces, varying_traces])
@pytest.mark.parametrize(
    "cfg", [PolarimeterConfig(), PolarimeterConfig(7e-3, 0.01), PolarimeterConfig(20e-3, 0.0)]
)
def test_polarimeter(n_lines, traces, cfg):
    assert all_same([polarimeter_dop(trace, cfg, np.random.default_rng(4)) for trace in traces(n_lines)])


@pytest.mark.parametrize("n_lines", [1, 2, 3])
def test_round_trip(n_lines):
    poincare = [trace.poincare for trace in held_traces(max(n_lines, 2))]
    assert all_same([poincare_round_trip(p[..., :n_lines, :]) for p in poincare])


def test_rotation_and_fiber():
    rng = np.random.default_rng(5)
    lines = np.broadcast_to(poincare_round_trip(random_unit_vector(rng)), (3, 3))
    axes = np.broadcast_to(random_unit_vector(rng), (SAMPLES, 3))
    retardances = np.broadcast_to(2.5, SAMPLES)
    angles = np.broadcast_to(rng.uniform(-10.0, 10.0, 3), (SAMPLES, 3))
    rotated, beams = [], []
    for states, axis_rows, turns, r in zip(forms(lines, 0), forms(axes, 0), forms(angles, 0), forms(retardances, 0)):
        rotated.append(rotate_poincare_many(states, axis_rows, turns))
        beams.append(fiber_trace(WAVELENGTHS, INTENSITIES, states, axis_rows, np.asarray(r), 1552.0, 1e-3).poincare)
    assert all_same(rotated) and all_same(beams)


def test_sphere_angles():
    rng = np.random.default_rng(6)
    rows = np.broadcast_to(random_unit_vector(rng) * 0.999, (SAMPLES, 3))
    ref = random_unit_vector(rng)
    results = [_sphere_angles(m, ref) for m in forms(rows, 0)]
    varying = np.array([random_unit_vector(rng) for _ in range(SAMPLES)])
    assert all_same(results)
    assert same_bits(_sphere_angles(varying, ref), _sphere_angles(samples_contiguous(varying, 0), ref))
