"""The array-native shake path against the per-sample value-type path.

The per-sample path -- one ``evolve`` and one ``apply_fiber`` per sample and
a trace built from the resulting ``SourceSpec`` snapshots -- is the oracle.
The window path must equal it bit for bit (``np.array_equal``), over drawn
channel, source and instrument settings.
"""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dopsim.channel import (
    FiberState,
    FluctuationProcess,
    apply_fiber,
    evolve,
    evolve_window,
    fiber_trace,
)
from dopsim import harness
from dopsim.cli import cli_main
from dopsim.harness import ShakeRecord, _streams, load_config, run_fig3_shake
from dopsim.instruments import (
    PolarizationTrace,
    invert_meter_readout,
    polarimeter_dop,
    singlet_meter_raw,
)
from dopsim.polcore import NumericsError, poincare_angle
from dopsim.sources import great_circle_pair, two_laser_source

#: acos near +/-1 turns a one-ULP change of the cosine (2.2e-16) into up to
#: sqrt(2 * 2.2e-16) = 2.1e-8 rad; the batched sphere angle may differ by that.
ANGLE_TOLERANCE = 1e-7

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def zero_or(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi))


@st.composite
def shake_docs(draw):
    dt = 1e-3
    samples = draw(st.integers(20, 80))
    axis = draw(
        st.tuples(*[st.floats(-3.0, 3.0)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-4)
    )
    lambda1 = draw(st.floats(1500.0, 1600.0))
    channel = {
        "axis": list(axis),
        "retardance_mean_rad": draw(zero_or(-4.0, 4.0)),
        "retardance_sigma_rad": draw(zero_or(0.01, 1.5)),
        "axis_diffusion_rad2_per_s": draw(zero_or(0.1, 50.0)),
        "correlation_time_s": draw(st.floats(0.005, 1.0)),
    }
    seed = draw(st.one_of(st.none(), st.integers(0, 2**40)))
    if seed is not None:
        channel["seed"] = seed
    ref = draw(st.one_of(st.none(), st.floats(1000.0, 2000.0)))
    if ref is not None:
        channel["ref_wavelength_nm"] = ref
    return {
        "scenario": "fig3_shake",
        "seed": draw(st.integers(0, 2**31)),
        "dt_s": dt,
        "source": {
            "lambda1_nm": lambda1,
            "lambda2_nm": lambda1 + draw(st.floats(0.5, 4.0)),  # inside the acceptance
            "intensity1": draw(st.floats(0.1, 2.0)),
            "intensity2": draw(st.floats(0.1, 2.0)),
        },
        "shake": {
            "windows": draw(st.integers(3, 6)),
            "window_s": samples * dt,
            "two_phi_deg": draw(st.floats(0.0, 180.0)),
            "circle_index": draw(st.integers(0, 2)),
            "base_angle_deg": draw(st.floats(0.0, 360.0)),
        },
        "channel": channel,
        "meter": {
            "noise_sigma_rel": draw(st.sampled_from([0.0, 0.15])),
            "response_time_s": draw(st.sampled_from([1e-3, 5e-3])),
        },
        "polarimeter": {
            "integration_time_s": draw(st.sampled_from([samples * dt, (samples // 2) * dt])),
            "noise_sigma_rel": draw(st.sampled_from([0.0, 0.01])),
        },
    }


def shake_setup(cfg):
    """(source, reference wavelength, shaking process, initial fiber) as the runner builds them."""
    shake, src_cfg, chan = cfg.shake, cfg.two_laser, cfg.channel
    m1, m2 = great_circle_pair(shake.circle_index, shake.base_angle_deg, shake.two_phi_deg)
    src = two_laser_source(
        src_cfg.lambda1_nm, src_cfg.lambda2_nm, src_cfg.intensity1, src_cfg.intensity2, m1, m2
    )
    ref = chan.ref_wavelength_nm if chan.ref_wavelength_nm is not None else src.wavelengths_nm()[0]
    process = FluctuationProcess(
        correlation_time_s=chan.correlation_time_s,
        axis_diffusion_rad2_per_s=chan.axis_diffusion_rad2_per_s,
        retardance_sigma_rad=chan.retardance_sigma_rad,
        retardance_mean_rad=chan.retardance_mean_rad,
    )
    return src, ref, process, FiberState(chan.axis, chan.retardance_mean_rad, ref)


def per_sample_run(cfg):
    """The shake runner as one evolve + apply_fiber per sample and one
    snapshot-built trace per window: (records, axes, retardances, deflections)."""
    shake, meter, pol_cfg = cfg.shake, cfg.meter, cfg.polarimeter
    rng_channel, rng_meter, rng_pol, _ = _streams(cfg.seed)
    if cfg.channel.seed is not None:
        rng_channel = np.random.default_rng(cfg.channel.seed)
    src, _, process, fiber = shake_setup(cfg)
    reference_m1 = apply_fiber(src, fiber).lines[0].poincare()
    n = int(round(shake.window_s / cfg.dt_s))

    records, states, deflections = [], [], []
    for window in range(shake.windows):
        shaken = 0 < window < shake.windows - 1
        snapshots = []
        for _ in range(n):
            if shaken:
                fiber = evolve(fiber, cfg.dt_s, process, rng_channel)
            snap = apply_fiber(src, fiber)
            snapshots.append(snap)
            states.append(fiber.axis + (fiber.retardance_ref_rad,))
            if shaken:
                deflections.append(poincare_angle(snap.lines[0].poincare(), reference_m1))
        trace = PolarizationTrace.from_snapshots(cfg.dt_s, snapshots)
        readout = singlet_meter_raw(trace, meter, rng_meter if meter.noise_sigma_rel > 0 else None)
        estimate = invert_meter_readout(
            np.array([readout.mean()]), meter, trace.wavelengths, src.intensities()
        )
        pol = polarimeter_dop(trace, pol_cfg, rng_pol if pol_cfg.noise_sigma_rel > 0 else None)
        records.append(
            ShakeRecord(
                window=window,
                t_start_s=window * shake.window_s,
                t_end_s=(window + 1) * shake.window_s,
                shaken=shaken,
                meter_readout_mean=float(readout.mean()),
                meter_dop=float(estimate.dop[0]),
                meter_clipped=bool(estimate.clipped[0]),
                polarimeter_dop=float(np.mean(pol)),
            )
        )
    states = np.array(states, dtype=float)
    return records, states[:, :3], states[:, 3], deflections


@SETTINGS
@given(doc=shake_docs(), channel_seed=st.integers(0, 2**32))
def test_window_equals_evolve_and_apply_fiber_loop(doc, channel_seed):
    cfg = load_config(doc)
    src, ref, process, fiber = shake_setup(cfg)
    n = int(round(cfg.shake.window_s / cfg.dt_s))

    axes, retardances = evolve_window(fiber, cfg.dt_s, n, process, np.random.default_rng(channel_seed))
    rng = np.random.default_rng(channel_seed)
    fibers = []
    for _ in range(n):
        fiber = evolve(fiber, cfg.dt_s, process, rng)
        fibers.append(fiber)
    assert np.array_equal(axes, np.array([f.axis for f in fibers], dtype=float))
    assert np.array_equal(retardances, np.array([f.retardance_ref_rad for f in fibers]))

    trace = fiber_trace(src, axes, retardances, ref, cfg.dt_s)
    oracle = PolarizationTrace.from_snapshots(cfg.dt_s, [apply_fiber(src, f) for f in fibers])
    assert np.array_equal(trace.wavelengths, oracle.wavelengths)
    assert np.array_equal(trace.intensities, oracle.intensities)
    assert np.array_equal(trace.poincare, oracle.poincare)

    meter, pol_cfg = cfg.meter, cfg.polarimeter
    assert np.array_equal(
        singlet_meter_raw(trace, meter, np.random.default_rng(1)),
        singlet_meter_raw(oracle, meter, np.random.default_rng(1)),
    )
    assert np.array_equal(
        polarimeter_dop(trace, pol_cfg, np.random.default_rng(2)),
        polarimeter_dop(oracle, pol_cfg, np.random.default_rng(2)),
    )


def trajectory_bytes(axes, retardances, dt_s):
    """The trajectory CSV as rows rendered one by one."""
    rows = ["time_s,axis1,axis2,axis3,retardance_rad\r\n"]
    for t, (a1, a2, a3), r in zip((np.arange(len(axes)) * dt_s).tolist(), axes.tolist(), retardances.tolist()):
        rows.append("%.12g,%.12g,%.12g,%.12g,%.12g\r\n" % (t, a1, a2, a3, r))
    return "".join(rows).encode()


@SETTINGS
@given(doc=shake_docs(), budget=st.sampled_from(["one", "two_windows", "default"]), written=st.booleans())
def test_shake_run_equals_per_sample_run(doc, budget, written):
    cfg = load_config(doc)
    n = int(round(cfg.shake.window_s / cfg.dt_s))
    # one window per block (the unshaken first and last alone), two (a block
    # boundary splits the shaken run), or every window in one block; the
    # trajectory writer renders blocks of at most the same budget of rows
    block = {"one": 1, "two_windows": 2 * n + 1, "default": harness.BLOCK_SAMPLES}[budget]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv" if written else None
        with mock.patch.object(harness, "BLOCK_SAMPLES", block):
            result = run_fig3_shake(cfg, trajectory_csv=path)
        assert sorted(p.name for p in Path(tmp).iterdir()) == (["trajectory.csv"] if written else [])
        records, axes, retardances, deflections = per_sample_run(cfg)
        if written:
            assert path.read_bytes() == trajectory_bytes(axes, retardances, cfg.dt_s)
    assert result.records == records
    summary = result.summary
    assert math.isclose(
        summary["scrambling_mean_deflection_rad"], float(np.mean(deflections)), rel_tol=0.0,
        abs_tol=ANGLE_TOLERANCE,
    )
    assert math.isclose(
        summary["scrambling_max_deflection_rad"], float(np.max(deflections)), rel_tol=0.0,
        abs_tol=ANGLE_TOLERANCE,
    )


def test_failed_run_leaves_no_trajectory(tmp_path):
    # the polarimeter fails in the second block, after the first block's
    # rows went to the file: neither the trajectory nor its temporary file stays
    doc = {
        "scenario": "fig3_shake",
        "shake": {"windows": 6, "window_s": 0.05},
        "output": {"trajectory_csv": "trajectory.csv"},
    }
    config = tmp_path / "shake.json"
    config.write_text(json.dumps(doc))
    real, calls = harness.polarimeter_dop, []

    def fails_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NumericsError("polarimeter_dop: injected failure")
        return real(*args, **kwargs)

    out = tmp_path / "out"
    with mock.patch.object(harness, "BLOCK_SAMPLES", 100), mock.patch.object(harness, "polarimeter_dop", fails_second):
        assert cli_main(["shake", "--config", str(config), "--out", str(out)]) == 3
    assert len(calls) == 2
    assert list(out.iterdir()) == []


def shake_peak_bytes(tmp_path, windows):
    """tracemalloc peak of one CLI shake run of windows 1 s windows (1000
    samples each) with the trajectory written."""
    doc = {
        "scenario": "fig3_shake",
        "shake": {"windows": windows, "window_s": 1.0},
        "polarimeter": {"integration_time_s": 1.0},
        "output": {"trajectory_csv": "trajectory.csv"},
    }
    config = tmp_path / f"shake{windows}.json"
    config.write_text(json.dumps(doc))
    argv = ["shake", "--config", str(config), "--out", str(tmp_path / f"out{windows}")]
    tracemalloc.start()
    try:
        assert cli_main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shake_memory_does_not_grow_with_run_length(tmp_path):
    shake_peak_bytes(tmp_path, 3)  # first-call allocations out of the way
    short, long = shake_peak_bytes(tmp_path, 10), shake_peak_bytes(tmp_path, 160)
    assert long - short < 0.5e6, (short, long)


@pytest.mark.parametrize("budget", [100, 10])
@pytest.mark.parametrize("windows", [3, 10, 41])
def test_instrument_calls_hold_at_most_one_block(windows, budget):
    # memory is pinned to the block size (one window when a window is
    # longer), not to the run length
    cfg = load_config(
        {
            "scenario": "fig3_shake",
            "dt_s": 1e-3,
            "shake": {"windows": windows, "window_s": 0.03},
            "polarimeter": {"integration_time_s": 0.01, "noise_sigma_rel": 0.01},
            "meter": {"noise_sigma_rel": 0.1},
        }
    )
    n = 30
    held = []

    def spy(real):
        def call(trace, *args, **kwargs):
            held.append(math.prod(trace.intensities.shape[:-1]))
            return real(trace, *args, **kwargs)
        return call

    with mock.patch.object(harness, "BLOCK_SAMPLES", budget), \
            mock.patch.object(harness, "singlet_meter_raw", spy(harness.singlet_meter_raw)), \
            mock.patch.object(harness, "polarimeter_dop", spy(harness.polarimeter_dop)):
        result = run_fig3_shake(cfg)
    assert len(result.records) == windows
    assert len(held) == 2 * math.ceil(windows / max(1, budget // n))
    assert max(held) <= max(n, budget)
    assert sum(held) == 2 * windows * n
