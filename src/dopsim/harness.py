"""Scenario runner: three canned experiments plus meter calibration.

* scan  -- sweep two-laser polarization pairs over three orthogonal great
  circles and fit the meter readout against 1 - DOP^2.
* shake -- compare the pair-projection meter with the averaging polarimeter
  on a beam whose polarization is scrambled by a fluctuating fiber while its
  DOP stays constant; first and last windows are unshaken references.
* pmd   -- depolarize a modulated carrier with first-order PMD and record
  true and measured DOP against differential group delay.

Every run is a pure function of (config, seed); CSV and JSON outputs use a
fixed 12-significant-digit decimal rendering so repeated runs are
byte-identical.  Random streams are derived from the root seed in a fixed
order (channel, meter, polarimeter).
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channel import ChannelSettings, evolve_window, fiber_trace, pmd_turns
from .instruments import (
    CrystalStack,
    MeterConfig,
    PairTable,
    PolarimeterConfig,
    PolarizationTrace,
    acceptance_bandwidth,
    calibrate_from_references,
    invert_meter_readout,
    pair_table,
    polarimeter_dop,
    singlet_meter_raw,
)
from .polcore import (
    DopsimError,
    InvariantError,
    check_pure_states,
    mixture_dop_many,
    poincare_round_trip,
    rotate_poincare_many,
)
from .sources import great_circle_vectors, modulation_wavelength_offset_nm

DEFAULT_SEED_ENV = "DOPSIM_SEED"

#: Most samples one scan point, shake window or calibration reference may
#: hold.  Peak memory grows by about 0.5 KB per window sample: a shake run of
#: three windows this long peaks at 170 MB, a scan point or a calibration
#: reference at 87 MB.
MAX_SAMPLES = 2**18

#: Most points a scan, windows a shake run or DGD steps a PMD sweep may hold;
#: a scan or a sweep this long peaks at 77 MB.
MAX_COUNT = 2**16

#: Smallest spread of 1 - DOP^2 over a scan's points that a line fit can
#: use.  Levels of one DOP -- one level repeated, or 2phi and 360 - 2phi --
#: leave a spread of a few ULPs, and a fit through it reports slopes near
#: 1e12; the records print 1 - DOP^2 to 12 digits, where it does not show.
SCAN_MIN_SPREAD = 1e-12

#: Largest readout scale an instrument may have: the meter's
#: (gain + |dark_offset|) (1 + 10 noise_sigma_rel) and the polarimeter's
#: (intensity1 + intensity2) (1 + 10 noise_sigma_rel).  The square of a
#: readout, summed over MAX_SAMPLES samples by a readout std or over
#: MAX_COUNT points by the scan's line fit, and the squared norm of a noisy
#: Stokes vector stay far inside the float range.
MAX_READOUT_SCALE = 1e150

#: Largest range of the meter's inversion (r - dark_offset) / gain: the
#: readout scale over the gain, and 1 over the gain, stay within it.  The
#: quotients, the noise on the dark level included, and their squares stay
#: far inside the float range, and readouts of the order of the gain stay
#: far above the subnormal floats, where they lose their digits.
MAX_INVERSION_RANGE = 1e150

#: Smallest signal a meter may have: the readout span V (1 - c_bar) / 2, in
#: units of gain, between a fully polarized and a depolarized balanced beam.
#: A smaller span is lost in the rounding of a readout of the order of the
#: gain (the calibration references do not separate), and the inversion's
#: divisions by V and 1 - c_bar can leave the float range.
MIN_SIGNAL = 1e-9

#: Largest sum of a line set's pair weights I_i I_j: the meter's per-sample
#: weight sum stays inside the float range.
MAX_PAIR_WEIGHT = 1e300

#: Largest reach the shake channel's walk may have, in rad for the
#: retardance (|retardance_mean_rad| + 10 retardance_sigma_rad) and in rad^2
#: for the variance of one axis kick (axis_diffusion_rad2_per_s * dt_s): the
#: fiber state, and its square, stay far inside the float range.
MAX_WALK = 1e150


class ConfigError(DopsimError):
    """Configuration rejected; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# config schema: one read rule per key, one section reader, one registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    """A finite number, not a bool or a string: at least ``lo``, above
    ``gt`` and at most ``hi``."""

    lo: float | None = None
    gt: float | None = None
    hi: float | None = None

    def read(self, value, label: str):
        value = self.convert(value, label)
        if self.gt is not None and value <= self.gt:
            raise ConfigError(f"{label}: must be > {self.gt}, got {value}")
        if self.lo is not None and value < self.lo:
            raise ConfigError(f"{label}: must be >= {self.lo}, got {value}")
        if self.hi is not None and value > self.hi:
            raise ConfigError(f"{label}: must be <= {self.hi}, got {value}")
        return value

    def convert(self, value, label: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{label}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{label}: must be finite")
        return value


class Integer(Number):
    """An integer, not a bool, within the bounds."""

    def convert(self, value, label: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{label}: expected an integer, got {value!r}")
        return value


class Choice:
    """One of the given values, of the same type: 1.0 and True are not 1."""

    def __init__(self, *values):
        self.values = values

    def read(self, value, label: str):
        if not any(type(value) is type(v) and value == v for v in self.values):
            raise ConfigError(f"{label}: expected one of {list(self.values)}, got {value!r}")
        return value


@dataclass(frozen=True)
class ListOf:
    """A non-empty list (of ``length`` entries, if given) as a tuple, each
    entry read by ``entry``; ``unit`` normalises it to a unit vector."""

    entry: Number | Choice
    length: int | None = None
    unit: bool = False

    def read(self, value, label: str) -> tuple:
        if not isinstance(value, list) or not value or self.length not in (None, len(value)):
            raise ConfigError(f"{label}: expected a list of {self.length or 'one or more'} entries")
        values = tuple(self.entry.read(v, f"{label}: entry {i}") for i, v in enumerate(value))
        if not self.unit:
            return values
        squares = sum(v * v for v in values)
        if squares < sys.float_info.min:
            # the squares of a tiny vector lose bits below the normal range:
            # scale it by an exact power of two first
            exponent = math.frexp(max(abs(v) for v in values))[1]
            values = tuple(math.ldexp(v, -exponent) for v in values)
            squares = sum(v * v for v in values)
        n = math.sqrt(squares)
        if not math.isfinite(n) or n == 0.0:
            raise ConfigError(f"{label}: must be a finite nonzero vector")
        return tuple(v / n for v in values)


@dataclass(frozen=True)
class OrNone:
    """``None``, leaving the field unset, or a value ``rule`` reads."""

    rule: Number | FilePath

    def read(self, value, label: str):
        return None if value is None else self.rule.read(value, label)


class FilePath:
    """A file name: a non-empty string."""

    def read(self, value, label: str) -> str:
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{label}: expected a non-empty string path, got {value!r}")
        return value


@dataclass(frozen=True)
class Section:
    """A config object read into the dataclass ``cls``, one rule per key.

    A key left out takes the scenario's default from ``defaults`` (keyed by
    field path), else the dataclass default; a left-out section reads as
    ``{}``.  An unknown key and a broken dataclass invariant are errors
    naming the section.  ``attr`` is the field of ``cls``'s owner that the
    section fills, when it is not the key.
    """

    cls: type
    rules: dict
    attr: str | None = None

    def read(self, data, label: str, defaults: dict) -> object:
        where = label or "config"
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected an object")
        values = {}
        for key, rule in self.rules.items():
            path = f"{label}.{key}" if label else key
            if isinstance(rule, Section):
                values[rule.attr or key] = rule.read(data.get(key, {}), path, defaults)
            elif key in data:
                values[key] = rule.read(data[key], path)
            elif path in defaults:
                values[key] = defaults[path]
        unknown = set(data) - set(self.rules)
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        try:
            return self.cls(**values)
        except InvariantError as exc:
            raise ConfigError(f"{where}: {exc}")


@dataclass(frozen=True)
class TwoLaserSettings:
    lambda1_nm: float = 1552.0
    lambda2_nm: float = 1554.0
    intensity1: float = 1.0
    intensity2: float = 1.0


@dataclass(frozen=True)
class ScanSettings:
    circles: tuple[int, ...] = (0, 1, 2)
    base_count: int = 5
    base_step_deg: float = 40.0
    two_phi_deg: tuple[float, ...] = tuple(float(x) for x in range(0, 100, 10))
    samples_per_point: int = 1
    normalization: str = "global"


@dataclass(frozen=True)
class ShakeSettings:
    windows: int = 10
    window_s: float = 10.0
    two_phi_deg: float = 0.0
    circle_index: int = 0
    base_angle_deg: float = 0.0


@dataclass(frozen=True)
class CarrierSettings:
    carrier_nm: float = 1550.0
    bitrate_hz: float = 2.0e11
    poincare: tuple[float, float, float] = (0.0, 0.0, 1.0)
    intensity_split: tuple[float, float, float] = (0.25, 0.5, 0.25)


@dataclass(frozen=True)
class PmdSettings:
    axis: tuple[float, float, float] = (1.0, 0.0, 0.0)
    dgd_start_s: float = 0.0
    dgd_stop_s: float = 2.5e-12
    dgd_steps: int = 26


@dataclass(frozen=True)
class CalibrateSettings:
    samples: int = 1000


@dataclass(frozen=True)
class OutputPaths:
    records_csv: str | None = None
    summary_json: str | None = None
    trajectory_csv: str | None = None
    calibration_json: str | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    meter: MeterConfig
    output: OutputPaths
    seed: int | None = None
    dt_s: float = 1.0
    two_laser: TwoLaserSettings | None = None
    scan: ScanSettings | None = None
    shake: ShakeSettings | None = None
    channel: ChannelSettings | None = None
    polarimeter: PolarimeterConfig | None = None
    carrier: CarrierSettings | None = None
    pmd: PmdSettings | None = None
    calibrate: CalibrateSettings | None = None


AXIS = ListOf(Number(), 3, unit=True)

METER = Section(
    MeterConfig,
    {
        "stack": Section(
            CrystalStack,
            {
                "element_length_mm": Number(gt=0.0),
                "elements_per_stage": Integer(lo=1),
                "stages": Integer(),
                "reference_acceptance_nm": Number(gt=0.0),
                "reference_length_mm": Number(gt=0.0),
            },
        ),
        "visibility": Number(gt=0.0, hi=1.0),
        "stage_phase_rad": Number(),
        "gain": Number(gt=0.0),
        "dark_offset": Number(),
        "noise_sigma_rel": Number(lo=0.0),
        "response_time_s": Number(gt=0.0),
        "min_separation_nm": Number(lo=0.0),
    },
)
OUTPUT = Section(
    OutputPaths,
    {key: OrNone(FilePath()) for key in ("records_csv", "summary_json", "trajectory_csv", "calibration_json")},
)
TWO_LASER = Section(
    TwoLaserSettings,
    {
        "lambda1_nm": Number(gt=0.0),
        "lambda2_nm": Number(gt=0.0),
        "intensity1": Number(lo=0.0),
        "intensity2": Number(lo=0.0),
    },
    attr="two_laser",
)
SCAN = Section(
    ScanSettings,
    {
        "circles": ListOf(Choice(0, 1, 2)),
        "base_count": Integer(lo=1),
        "base_step_deg": Number(),
        "two_phi_deg": ListOf(Number()),
        "samples_per_point": Integer(lo=1, hi=MAX_SAMPLES),
        "normalization": Choice("global", "per_circle"),
    },
)
SHAKE = Section(
    ShakeSettings,
    {
        "windows": Integer(lo=3, hi=MAX_COUNT),
        "window_s": Number(gt=0.0),
        "two_phi_deg": Number(),
        "circle_index": Choice(0, 1, 2),
        "base_angle_deg": Number(),
    },
)
CHANNEL = Section(
    ChannelSettings,
    {
        "axis": AXIS,
        "retardance_mean_rad": Number(),
        "retardance_sigma_rad": Number(lo=0.0),
        "axis_diffusion_rad2_per_s": Number(lo=0.0),
        "correlation_time_s": Number(gt=0.0),
        "ref_wavelength_nm": OrNone(Number(gt=0.0)),
        "seed": OrNone(Integer(lo=0)),
    },
)
POLARIMETER = Section(
    PolarimeterConfig,
    {"integration_time_s": Number(gt=0.0), "noise_sigma_rel": Number(lo=0.0)},
)
CARRIER = Section(
    CarrierSettings,
    {
        "carrier_nm": Number(gt=0.0),
        "bitrate_hz": Number(gt=0.0),
        "poincare": AXIS,
        "intensity_split": ListOf(Number(lo=0.0), 3),
    },
    attr="carrier",
)
PMD = Section(
    PmdSettings,
    {
        "axis": AXIS,
        "dgd_start_s": Number(lo=0.0),
        "dgd_stop_s": Number(gt=0.0),
        "dgd_steps": Integer(lo=2, hi=MAX_COUNT),
    },
)
CALIBRATION = Section(CalibrateSettings, {"samples": Integer(lo=1, hi=MAX_SAMPLES)}, attr="calibrate")


@dataclass(frozen=True)
class Scenario:
    """One scenario: its CLI command, its sections by config key, the
    defaults that differ by scenario (by field path), and the names of its
    runner and writer in this module, looked up when called.  ``outputs``
    maps each output to its default file name; an output without one is
    written only when the config names it.  The runner takes the
    ``streamed`` outputs by keyword and writes them as it runs; the writer
    takes the others, in order, after the run."""

    command: str
    sections: dict[str, Section]
    run: str
    write: str
    outputs: dict[str, str | None]
    defaults: dict[str, object] = field(default_factory=dict)
    streamed: tuple[str, ...] = ()


SCENARIOS = {
    "fig2_scan": Scenario(
        command="scan",
        sections={"source": TWO_LASER, "scan": SCAN},
        run="run_fig2_scan",
        write="write_scan_outputs",
        outputs={"records_csv": "scan.csv", "summary_json": "scan_summary.json"},
        defaults={"meter.noise_sigma_rel": 0.15},
    ),
    "fig3_shake": Scenario(
        command="shake",
        sections={"source": TWO_LASER, "shake": SHAKE, "channel": CHANNEL, "polarimeter": POLARIMETER},
        run="run_fig3_shake",
        write="write_shake_outputs",
        outputs={"records_csv": "shake.csv", "summary_json": "shake_summary.json", "trajectory_csv": None},
        defaults={"dt_s": 1e-3, "meter.noise_sigma_rel": 0.15, "polarimeter.noise_sigma_rel": 0.01},
        streamed=("trajectory_csv",),
    ),
    "pmd_sweep": Scenario(
        command="pmd",
        sections={"source": CARRIER, "pmd": PMD},
        run="run_pmd_sweep",
        write="write_pmd_outputs",
        outputs={"records_csv": "pmd.csv", "summary_json": "pmd_summary.json"},
    ),
    "calibrate": Scenario(
        command="calibrate",
        sections={"source": TWO_LASER, "calibration": CALIBRATION},
        run="run_calibrate",
        write="write_calibration_output",
        outputs={"calibration_json": "calibration.json"},
        defaults={"meter.noise_sigma_rel": 0.15},
    ),
}

TOP_LEVEL = {
    "scenario": Choice(*SCENARIOS),
    "seed": OrNone(Integer(lo=0)),
    "dt_s": Number(gt=0.0),
    "meter": METER,
    "output": OUTPUT,
}


def load_config(
    doc: dict,
    seed_override: int | None = None,
    noise_off: bool = False,
) -> ScenarioConfig:
    """Read a raw JSON document into a ScenarioConfig and ``check`` it.

    Seed precedence: explicit override, then the config value, then the
    DOPSIM_SEED environment variable, then 0.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config: expected an object")
    spec = SCENARIOS[TOP_LEVEL["scenario"].read(doc.get("scenario"), "scenario")]
    cfg = Section(ScenarioConfig, {**TOP_LEVEL, **spec.sections}).read(doc, "", spec.defaults)

    seed, label = (cfg.seed if seed_override is None else seed_override), "seed"
    if seed is None:
        env, label = os.environ.get(DEFAULT_SEED_ENV, "0"), DEFAULT_SEED_ENV
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{DEFAULT_SEED_ENV}: expected an integer, got {env!r}")
    cfg = replace(cfg, seed=Integer(lo=0).read(seed, label))

    if noise_off:
        cfg = replace(cfg, meter=replace(cfg.meter, noise_sigma_rel=0.0))
        if cfg.polarimeter is not None:
            cfg = replace(cfg, polarimeter=replace(cfg.polarimeter, noise_sigma_rel=0.0))
    check(cfg)
    return cfg


def load_config_file(path: str | Path, **kwargs) -> ScenarioConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    return load_config(doc, **kwargs)


class LineSet(NamedTuple):
    """A run's spectral lines in wavelength order, as ``line_set`` builds them.

    Line l lies at ``wavelengths[l]`` with intensity ``intensities[l]`` and
    carries the Poincare vector of configured line ``order[l]``: for the two
    lasers, line 1 or line 2 of the ``source`` section; for the carrier, the
    lower sideband, the carrier and the upper sideband in turn.
    """

    wavelengths: tuple[float, ...]
    intensities: tuple[float, ...]
    order: tuple[int, ...]
    table: PairTable


def line_set(cfg: ScenarioConfig) -> LineSet:
    """The lines of the config's two-laser source or modulated carrier and
    their pair table; the calibrate references are balanced whatever the
    configured intensities.

    A line set the meter cannot read is a config error naming the field that
    makes it so: no line pair within the acceptance, none with light in both
    lines, pair weights -- the intensity products I_i I_j -- that sum past
    MAX_PAIR_WEIGHT, pairs so close that their mean contamination reaches 1,
    or a meter signal below MIN_SIGNAL.
    """
    src, carrier = cfg.two_laser, cfg.carrier
    if src is not None:
        if src.lambda1_nm == src.lambda2_nm:
            raise ConfigError("source.lambda2_nm: must differ from lambda1_nm")
        if not 0.0 < src.intensity1 + src.intensity2 < math.inf:
            raise ConfigError("source.intensity1: total intensity must be > 0 and finite")
        order = (0, 1) if src.lambda1_nm < src.lambda2_nm else (1, 0)
        wavelengths = tuple((src.lambda1_nm, src.lambda2_nm)[i] for i in order)
        intensities = (1.0, 1.0) if cfg.calibrate is not None else tuple(
            (src.intensity1, src.intensity2)[i] for i in order
        )
        wavelength_field = "source.lambda2_nm"
        intensity_field = "source.intensity1" if src.intensity1 == 0.0 else "source.intensity2"
        heavier_field = "source.intensity1" if src.intensity1 >= src.intensity2 else "source.intensity2"
    else:
        if not 0.0 < sum(carrier.intensity_split) < math.inf:
            raise ConfigError("source.intensity_split: weights must have a positive finite sum")
        if not math.isfinite(carrier.carrier_nm * carrier.carrier_nm):
            raise ConfigError("source.carrier_nm: the sideband offset lambda^2 f / c overflows")
        offset = modulation_wavelength_offset_nm(carrier.carrier_nm, carrier.bitrate_hz)
        wavelengths = (carrier.carrier_nm - offset, carrier.carrier_nm, carrier.carrier_nm + offset)
        if not 0.0 < wavelengths[0] < wavelengths[1] < wavelengths[2] < math.inf:
            raise ConfigError(f"source.bitrate_hz: sidebands {offset:.6g} nm off the carrier are not distinct lines")
        order, intensities = (0, 1, 2), carrier.intensity_split
        wavelength_field = "source.bitrate_hz"
        intensity_field = heavier_field = "source.intensity_split"

    table = pair_table(wavelengths, intensities, cfg.meter)
    if not table.pairs:
        raise ConfigError(
            f"{wavelength_field}: no line pair within the meter acceptance "
            f"({acceptance_bandwidth(cfg.meter.stack):.6g} nm)"
        )
    weights = [intensities[i] * intensities[j] for i, j, _ in table.pairs]
    if not any(w > 0.0 for w in weights):
        raise ConfigError(f"{intensity_field}: no line pair within the meter acceptance carries light")
    if not sum(weights) <= MAX_PAIR_WEIGHT:
        raise ConfigError(
            f"{heavier_field}: the pair weights, the intensity products I_i I_j, sum past {MAX_PAIR_WEIGHT:g}"
        )
    if table.c_bar >= 1.0:
        raise ConfigError(
            f"{wavelength_field}: the line pairs are fully degenerate (mean contamination 1), "
            "so the meter reading cannot be inverted"
        )
    # the error names the field of the smaller factor of the signal
    signal = {"meter.visibility": cfg.meter.visibility, wavelength_field: 1.0 - table.c_bar}
    if not math.prod(signal.values()) / 2.0 >= MIN_SIGNAL:
        raise ConfigError(
            f"{min(signal, key=signal.get)}: the meter's signal visibility (1 - c_bar) / 2 "
            f"is below {MIN_SIGNAL:g} of its gain"
        )
    return LineSet(wavelengths, intensities, order, table)


def _samples(duration_s: float, dt_s: float, label: str) -> int:
    """Whole samples of dt_s in duration_s: at least one, at most MAX_SAMPLES."""
    ratio = duration_s / dt_s
    if ratio > MAX_SAMPLES:
        raise ConfigError(f"{label}: {ratio:.6g} samples exceed the cap of {MAX_SAMPLES}")
    samples = round(ratio)
    if samples < 1:
        raise ConfigError(f"{label}: shorter than one sample interval")
    return samples


def check(cfg: ScenarioConfig) -> None:
    """The rules that span fields or need the line set, each error naming a
    field.  ``load_config`` runs them, so a config that loads -- and that
    ``validate-config`` passes -- is one the scenario can measure."""
    src, meter = cfg.two_laser, cfg.meter
    lines = line_set(cfg)

    # each error names the largest term of the bound it breaks
    scale = {
        "gain": meter.gain,
        "dark_offset": abs(meter.dark_offset),
        "noise_sigma_rel": 1.0 + 10.0 * meter.noise_sigma_rel,
    }
    readout_scale = (scale["gain"] + scale["dark_offset"]) * scale["noise_sigma_rel"]
    if not readout_scale <= MAX_READOUT_SCALE:
        raise ConfigError(
            f"meter.{max(scale, key=scale.get)}: the readout scale "
            f"(gain + |dark_offset|) (1 + 10 noise_sigma_rel) exceeds {MAX_READOUT_SCALE:g}"
        )
    if not max(1.0, readout_scale) / meter.gain <= MAX_INVERSION_RANGE:
        raise ConfigError(
            "meter.gain: the inversion's range, the larger of 1 and the readout scale over the gain, "
            f"exceeds {MAX_INVERSION_RANGE:g}"
        )
    # the references' readouts differ by gain V (1 - c_bar) / 2, which must
    # outlast the rounding of readouts of the order of gain + |dark_offset|
    span = meter.visibility * (1.0 - lines.table.c_bar) / 2.0 * meter.gain
    if cfg.calibrate is not None and not span >= MIN_SIGNAL * (scale["gain"] + scale["dark_offset"]):
        raise ConfigError(
            f"meter.dark_offset: the calibration references' span gain V (1 - c_bar) / 2 "
            f"is below {MIN_SIGNAL:g} of gain + |dark_offset|"
        )

    scan = cfg.scan
    if scan is not None:
        points = len(scan.circles) * scan.base_count * len(scan.two_phi_deg)
        if points > MAX_COUNT:
            raise ConfigError(f"scan.base_count: {points} scan points exceed the cap of {MAX_COUNT}")
        widest = (scan.base_count - 1) * abs(scan.base_step_deg) + max(map(abs, scan.two_phi_deg))
        if not math.isfinite(widest):
            raise ConfigError("scan.base_step_deg: the scan angles leave the float range")
        # two pure lines 2phi apart on the sphere, on any circle, have 1 - DOP^2 = 4 w1 w2 sin^2(phi)
        w1 = src.intensity1 / (src.intensity1 + src.intensity2)
        k = 4.0 * w1 * (1.0 - w1)
        one_minus_dop2 = [k * math.sin(math.radians(level) / 2.0) ** 2 for level in scan.two_phi_deg]
        if max(one_minus_dop2) - min(one_minus_dop2) <= SCAN_MIN_SPREAD:
            raise ConfigError("scan.two_phi_deg: a line fit needs levels of at least two distinct DOPs")

    shake = cfg.shake
    if shake is not None:
        if not math.isfinite(shake.base_angle_deg + shake.two_phi_deg):
            raise ConfigError("shake.two_phi_deg: base_angle_deg + two_phi_deg leaves the float range")
        heavier = "source.intensity1" if src.intensity1 >= src.intensity2 else "source.intensity2"
        stokes = {
            heavier: src.intensity1 + src.intensity2,
            "polarimeter.noise_sigma_rel": 1.0 + 10.0 * cfg.polarimeter.noise_sigma_rel,
        }
        if not math.prod(stokes.values()) <= MAX_READOUT_SCALE:
            raise ConfigError(
                f"{max(stokes, key=stokes.get)}: the polarimeter's readout scale "
                f"(intensity1 + intensity2) (1 + 10 noise_sigma_rel) exceeds {MAX_READOUT_SCALE:g}"
            )
        chan = cfg.channel
        reach = {
            "retardance_mean_rad": abs(chan.retardance_mean_rad),
            "retardance_sigma_rad": 10.0 * chan.retardance_sigma_rad,
        }
        if not sum(reach.values()) <= MAX_WALK:
            raise ConfigError(
                f"channel.{max(reach, key=reach.get)}: the retardance walk's reach "
                f"|retardance_mean_rad| + 10 retardance_sigma_rad exceeds {MAX_WALK:g} rad"
            )
        # the fiber turns the shortest line the most, by retardance * ref_wavelength_nm / wavelength
        if chan.ref_wavelength_nm is not None and not (
            sum(reach.values()) * chan.ref_wavelength_nm / lines.wavelengths[0] <= MAX_WALK
        ):
            raise ConfigError(
                "channel.ref_wavelength_nm: the fiber's largest turn, the retardance walk's reach "
                f"times ref_wavelength_nm / the shortest line wavelength, exceeds {MAX_WALK:g} rad"
            )
        if not chan.axis_diffusion_rad2_per_s * cfg.dt_s <= MAX_WALK:
            raise ConfigError(
                f"channel.axis_diffusion_rad2_per_s: an axis kick's variance axis_diffusion_rad2_per_s * dt_s "
                f"exceeds {MAX_WALK:g} rad^2"
            )
        window = _samples(shake.window_s, cfg.dt_s, "shake.window_s")
        integration_s, label = cfg.polarimeter.integration_time_s, "polarimeter.integration_time_s"
        if integration_s is not None and _samples(integration_s, cfg.dt_s, label) > window:
            raise ConfigError(f"{label}: {integration_s} s exceeds shake.window_s ({shake.window_s} s)")

    pmd = cfg.pmd
    if pmd is not None:
        if pmd.dgd_stop_s <= pmd.dgd_start_s:
            raise ConfigError("pmd.dgd_stop_s: must exceed dgd_start_s")
        turns = pmd_turns(lines.wavelengths, cfg.carrier.carrier_nm).tolist()
        if not all(math.isfinite(pmd.dgd_stop_s * turn) for turn in turns):
            raise ConfigError("pmd.dgd_stop_s: turns the sidebands by a non-finite angle")


# ---------------------------------------------------------------------------
# deterministic stream derivation and output formatting
# ---------------------------------------------------------------------------


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator, int]:
    """(meter rng, polarimeter rng, derived channel seed)."""
    children = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(children[1]),
        np.random.default_rng(children[2]),
        int(children[0].generate_state(1)[0]),
    )


#: Rows one template renders at most; also the samples one instrument call
#: holds at most, unless one scan point or shake window is longer: the scan
#: and the shake runners go in blocks of whole points or windows, so memory
#: does not grow with the run length.
BLOCK_SAMPLES = 2048


@contextmanager
def csv_writer(path: str | Path, header: Sequence[str], row_template: str):
    """Write a CSV file in blocks: ``with csv_writer(...) as write`` gives a
    ``write(rows)`` that appends ``rows``, a 2-D array or a list of tuples,
    one CSV row each.

    CRLF line ends, each row rendered by ``row_template``: ``%d`` for integers
    and booleans (1/0), ``%.12g`` for floats.  No field needs quoting, so
    these are the bytes csv.writer gives.  Each block of at most
    ``BLOCK_SAMPLES`` rows is rendered by one %-operation, the template
    repeated once per row, on the block's values in row order.  The file is
    written under a temporary name beside ``path`` and renamed onto it when
    the ``with`` block ends; an exception removes it, so a failed run leaves
    no partial file.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")

    try:
        with open(partial, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")

            def write(rows) -> None:
                for lo in range(0, len(rows), BLOCK_SAMPLES):
                    block = rows[lo:lo + BLOCK_SAMPLES]
                    # an array's values go to Python floats in one call; tuples already hold them
                    values = block.ravel().tolist() if isinstance(block, np.ndarray) else chain.from_iterable(block)
                    fh.write(row_template * len(block) % tuple(values))

            yield write
        # on ext4, renaming onto an existing file flushes the new one to disk first
        path.unlink(missing_ok=True)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _json_ready(obj):
    """Plain JSON types; a float rounds to %.12g, and one that is not finite
    (an undefined summary value) becomes null."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}") if math.isfinite(obj) else None
    return obj


def _write_json(path: str | Path, payload: dict) -> None:
    text = json.dumps(_json_ready(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    # on ext4, truncating an existing file flushes it to disk when it is closed
    Path(path).unlink(missing_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


class RunResult(NamedTuple):
    """What a scenario runner returns: its records, one NamedTuple per CSV
    row with the fields in column order, and its summary."""

    records: list
    summary: dict


class ScanRecord(NamedTuple):
    circle: int
    base_idx: int
    two_phi_deg: float
    true_dop: float
    one_minus_dop2: float
    readout_mean: float
    readout_std: float


def predicted_scan_line(cfg: ScenarioConfig) -> tuple[float, float]:
    """Analytic (slope, intercept) of readout vs 1 - DOP^2 for the meter and
    two-laser source in the config, valid for the noiseless model."""
    meter, table = cfg.meter, line_set(cfg).table
    ((_, _, c),) = table.pairs
    slope = meter.gain * meter.visibility * (1.0 - c) / (4.0 * table.k)
    intercept = meter.dark_offset + meter.gain * (
        (1.0 - meter.visibility) / 2.0 + meter.visibility * c / 4.0
    )
    return slope, intercept


def _affine_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def _two_laser_vectors(lines: LineSet, circles, base_angles_deg, two_phi_deg) -> np.ndarray:
    """The two lasers' Poincare vectors of P beams, (P, 2, 3) in wavelength
    order: line 1 at ``base_angles_deg`` along great circle ``circles``, line
    2 ``two_phi_deg`` beyond it, each checked to be a pure state."""
    m1 = great_circle_vectors(circles, base_angles_deg)
    m2 = great_circle_vectors(circles, np.add(base_angles_deg, two_phi_deg))
    mvecs = np.stack([m1, m2], axis=1)
    check_pure_states(mvecs, "two_laser_source")
    return mvecs[:, lines.order]


def run_fig2_scan(cfg: ScenarioConfig) -> RunResult:
    """All scan points in one array pass, in record order (circle, then base
    state, then level): the same records, bit for bit, as building one
    two-laser beam per point and reading it alone."""
    scan, meter, lines = cfg.scan, cfg.meter, line_set(cfg)
    rng_meter, _, _ = _streams(cfg.seed)

    circle, base_idx, two_phi = (
        a.ravel()
        for a in np.meshgrid(scan.circles, np.arange(scan.base_count), scan.two_phi_deg, indexing="ij")
    )
    mvecs = _two_laser_vectors(lines, circle, base_idx * scan.base_step_deg, two_phi)

    true_dop = mixture_dop_many(mvecs, lines.intensities).tolist()
    # Python float ``**2`` (libm pow), which differs from x * x in the last bit for some x
    one_minus_dop2 = [1.0 - d**2 for d in true_dop]
    x = np.array(one_minus_dop2)
    beams = poincare_round_trip(mvecs)
    n = scan.samples_per_point
    block = max(1, BLOCK_SAMPLES // n)
    means, stds = [], []
    for lo in range(0, len(beams), block):
        trace = PolarizationTrace.held(cfg.dt_s, lines.wavelengths, lines.intensities, beams[lo:lo + block], n)
        readout = singlet_meter_raw(trace, meter, rng_meter, lines.table)
        means.append(readout.mean(axis=1))
        stds.append(readout.std(axis=1))
    readout_mean, readout_std = np.concatenate(means), np.concatenate(stds)

    records = list(map(ScanRecord._make, zip(
        circle.tolist(), base_idx.tolist(), two_phi.tolist(), true_dop, one_minus_dop2,
        readout_mean.tolist(), readout_std.tolist(),
    )))
    slope, intercept, r_squared = _affine_fit(x, readout_mean)
    predicted_slope, predicted_intercept = predicted_scan_line(cfg)

    # per-level spread across the (circles x base states) repeats
    per_level = []
    richest = x == x.max()
    global_ref = float(np.mean(readout_mean[richest]))
    # per circle, the reference is the circle's points at the level of the
    # richest point: 1 - DOP^2 of one level differs by ULPs across circles
    reference_level = two_phi == two_phi[np.argmax(x)]
    for level_deg in scan.two_phi_deg:
        at_level = two_phi == float(level_deg)
        values = readout_mean[at_level]
        if cfg.scan.normalization == "per_circle":
            normalized = []
            for c in scan.circles:
                ref = np.mean(readout_mean[(circle == c) & reference_level])
                if ref > 0:
                    normalized.append(readout_mean[at_level & (circle == c)] / ref)
            norm_mean = float(np.mean(np.concatenate(normalized))) if normalized else math.nan
        else:
            norm_mean = float(values.mean() / global_ref) if global_ref > 0 else math.nan
        per_level.append(
            {
                "two_phi_deg": float(level_deg),
                "true_dop": true_dop[int(np.argmax(at_level))],
                "readout_mean": float(values.mean()),
                "readout_std": float(values.std(ddof=1)) if len(values) > 1 else 0.0,
                "normalized_mean": norm_mean,
                "repeats": len(values),
            }
        )

    summary = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "points": len(records),
        "slope": slope,
        "intercept": intercept,
        "r_squared": r_squared,
        "predicted_slope": predicted_slope,
        "predicted_intercept": predicted_intercept,
        "normalization": scan.normalization,
        "noise_sigma_rel": meter.noise_sigma_rel,
        "per_level": per_level,
    }
    return RunResult(records, summary)


SCAN_CSV_HEADER = ScanRecord._fields
SCAN_CSV_ROW = "%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g\r\n"


def write_scan_outputs(result: RunResult, records_csv: str | Path, summary_json: str | Path) -> None:
    with csv_writer(records_csv, SCAN_CSV_HEADER, SCAN_CSV_ROW) as write:
        write(result.records)
    _write_json(summary_json, result.summary)


class ShakeRecord(NamedTuple):
    window: int
    t_start_s: float
    t_end_s: float
    shaken: bool
    meter_readout_mean: float
    meter_dop: float
    meter_clipped: bool
    polarimeter_dop: float


def _sphere_angles(m: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Sphere angle of each row of m (n, 3) from ref (3,), as the reference
    route's ``poincare_angle`` in ``tests/oracles.py`` takes it.

    The norms run along the samples, adding the squares in component order
    as ``np.linalg.norm(m, axis=1)`` does.  The dot products are one BLAS
    call on rows in C order, whatever m's memory order: BLAS takes a
    column-major matrix through another kernel, which differs in the last
    bit."""
    ref = np.ascontiguousarray(ref)
    m1, m2, m3 = m[:, 0], m[:, 1], m[:, 2]
    norms = np.sqrt(m1 * m1 + m2 * m2 + m3 * m3)
    cos = (np.ascontiguousarray(m) @ ref) / (norms * np.linalg.norm(ref))
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _fiber_blocks(
    chan: ChannelSettings,
    rng: np.random.Generator,
    dt_s: float,
    n: int,
    windows: int,
    block: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The fiber states of a shake run of ``windows`` windows of n samples,
    as (axes, retardances) per block of ``block`` windows.  The fiber starts
    at ``chan``'s axis and mean retardance; the first and the last window
    hold it still; the windows between walk it, one ``evolve_window`` call
    per block, each going on from where the last ended.  Only ``rng`` is
    drawn from."""
    axis, retardance = chan.axis, chan.retardance_mean_rad

    def held():  # one window of the fiber as it stands
        return np.broadcast_to(np.array(axis, dtype=float), (n, 3)), np.full(n, retardance)

    last = windows - 1
    for lo in range(0, windows, block):
        hi = min(lo + block, windows)
        first, stop = max(lo, 1), min(hi, last)  # the block's shaken windows
        segments = []
        if lo == 0:
            segments.append(held())
        if first < stop:
            walk = evolve_window(axis, retardance, dt_s, (stop - first) * n, chan, rng)
            segments.append(walk)
            axis, retardance = tuple(walk[0][-1].tolist()), float(walk[1][-1])
        if hi > last:
            segments.append(held())
        yield np.concatenate([a for a, _ in segments]), np.concatenate([r for _, r in segments])


TRAJECTORY_CSV_HEADER = ("time_s", "axis1", "axis2", "axis3", "retardance_rad")
TRAJECTORY_CSV_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g\r\n"


def run_fig3_shake(cfg: ScenarioConfig, trajectory_csv: str | Path | None = None) -> RunResult:
    """The shake run in blocks of whole windows, at most ``BLOCK_SAMPLES``
    samples each (one window when a window is longer).  A block takes one
    ``evolve_window`` call for its shaken windows, one ``fiber_trace``, one
    meter, inversion and polarimeter call on the batch of its windows, and
    one sphere-angle call: the same records and channel stream, bit for bit,
    as advancing and reading the windows one by one.  The fiber states come
    from ``_fiber_blocks``, walked in this process one block at a time.

    Given ``trajectory_csv``, each block's fiber states go there as the block
    is made, one row per sample (time_s, axis1..3, retardance_rad), so memory
    does not grow with the run length; the file takes its name when the run
    ends and is removed if the run fails.
    """
    shake, chan, meter, lines = cfg.shake, cfg.channel, cfg.meter, line_set(cfg)
    rng_meter, rng_pol, derived_seed = _streams(cfg.seed)
    channel_seed = chan.seed if chan.seed is not None else derived_seed
    rng_channel = np.random.default_rng(channel_seed)

    (mvecs,) = _two_laser_vectors(
        lines, [shake.circle_index], [shake.base_angle_deg], [shake.two_phi_deg]
    )
    line_vectors = poincare_round_trip(mvecs)
    ref_wavelength = chan.ref_wavelength_nm
    if ref_wavelength is None:
        ref_wavelength = lines.wavelengths[0]
    wavelengths = np.array(lines.wavelengths, dtype=float)
    intensities = np.array(lines.intensities, dtype=float)

    n = int(round(shake.window_s / cfg.dt_s))
    last = shake.windows - 1  # the first and last windows are unshaken
    block = max(1, BLOCK_SAMPLES // n)

    records: list[ShakeRecord] = []
    deflection_sum, deflection_max = 0.0, 0.0  # over the shaken samples
    trajectory = nullcontext() if trajectory_csv is None else csv_writer(
        trajectory_csv, TRAJECTORY_CSV_HEADER, TRAJECTORY_CSV_ROW
    )
    states = _fiber_blocks(chan, rng_channel, cfg.dt_s, n, shake.windows, block)
    with trajectory as write_trajectory:
        for lo, (axes, retardances) in zip(range(0, shake.windows, block), states):
            hi = min(lo + block, shake.windows)
            first, stop = max(lo, 1), min(hi, last)  # the block's shaken windows
            if write_trajectory is not None:
                write_trajectory(np.column_stack((np.arange(lo * n, hi * n) * cfg.dt_s, axes, retardances)))

            poincare = fiber_trace(wavelengths, line_vectors, axes, retardances, ref_wavelength)
            batch = (hi - lo, n, len(wavelengths))  # the block's windows as a batch of beams
            trace = PolarizationTrace(
                cfg.dt_s, wavelengths, np.broadcast_to(intensities, batch), poincare.reshape(batch + (3,))
            )
            line1 = poincare[:, 0, :]
            if lo == 0:
                reference_m1 = line1[0]
            if first < stop:
                angles = _sphere_angles(line1[(first - lo) * n:(stop - lo) * n], reference_m1)
                deflection_sum += float(angles.sum())
                deflection_max = max(deflection_max, float(angles.max()))

            readout_mean = singlet_meter_raw(trace, meter, rng_meter, lines.table).mean(axis=1)
            estimate = invert_meter_readout(readout_mean, meter, lines.table)
            pol = polarimeter_dop(trace, cfg.polarimeter, rng_pol).mean(axis=1)
            records.extend(
                ShakeRecord(
                    window, window * shake.window_s, (window + 1) * shake.window_s, 0 < window < last, r, d, c, p
                )
                for window, r, d, c, p in zip(
                    range(lo, hi), readout_mean.tolist(), estimate.dop.tolist(), estimate.clipped.tolist(),
                    pol.tolist(),
                )
            )

    reference = 0.5 * (records[0].meter_dop + records[-1].meter_dop)
    shaken_records = [r for r in records if r.shaken]
    summary = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "channel_seed": channel_seed,
        "windows": shake.windows,
        "window_s": shake.window_s,
        "two_phi_deg": shake.two_phi_deg,
        "source_dop": float(mixture_dop_many(mvecs[None], lines.intensities)[0]),
        "reference_meter_dop": reference,
        "reference_polarimeter_dop": 0.5 * (records[0].polarimeter_dop + records[-1].polarimeter_dop),
        "max_meter_deviation": max(abs(r.meter_dop - reference) for r in records),
        "min_shaken_polarimeter_dop": min(r.polarimeter_dop for r in shaken_records),
        "mean_shaken_polarimeter_dop": float(np.mean([r.polarimeter_dop for r in shaken_records])),
        # windows >= 3, so at least one window of n samples is shaken
        "scrambling_mean_deflection_rad": deflection_sum / ((last - 1) * n),
        "scrambling_max_deflection_rad": deflection_max,
    }
    return RunResult(records, summary)


SHAKE_CSV_HEADER = ShakeRecord._fields
SHAKE_CSV_ROW = "%d,%.12g,%.12g,%d,%.12g,%.12g,%d,%.12g\r\n"


def write_shake_outputs(result: RunResult, records_csv: str | Path, summary_json: str | Path) -> None:
    """The window records and the summary; the runner streams the trajectory."""
    with csv_writer(records_csv, SHAKE_CSV_HEADER, SHAKE_CSV_ROW) as write:
        write(result.records)
    _write_json(summary_json, result.summary)


class PmdRecord(NamedTuple):
    dgd_s: float
    source_dop: float
    meter_dop: float
    meter_clipped: bool


def run_pmd_sweep(cfg: ScenarioConfig) -> RunResult:
    """All DGD steps in one array pass: step k turns each carrier line about
    the principal axis by ``pmd_turns`` * DGD_k, and the meter reads every
    step's beam on its own.  ``tests/oracles.py`` holds the per-step
    reference, ``apply_pmd``, which the records equal bit for bit."""
    carrier, pmd, meter, lines = cfg.carrier, cfg.pmd, cfg.meter, line_set(cfg)
    rng_meter, _, _ = _streams(cfg.seed)

    # every line carries the configured polarization
    m0 = np.array(carrier.poincare, dtype=float)
    check_pure_states(m0, "modulated_carrier_source")
    m0_norm = math.sqrt(sum(m**2 for m in carrier.poincare))  # |M| through libm pow, as the reference route
    axis = np.asarray(pmd.axis, dtype=float)
    axis_norm = np.linalg.norm(axis)
    degenerate = abs(float(axis @ m0) / (axis_norm * m0_norm)) > 1.0 - 1e-9

    dgd = np.linspace(pmd.dgd_start_s, pmd.dgd_stop_s, pmd.dgd_steps)
    # (steps, L), the transpose of one row of steps per line
    angles = (pmd_turns(lines.wavelengths, carrier.carrier_nm)[:, None] * dgd).T
    axes = np.broadcast_to(axis / axis_norm, (len(dgd), 3))
    line_vectors = np.broadcast_to(poincare_round_trip(m0), (len(lines.wavelengths), 3))
    mvecs = rotate_poincare_many(line_vectors, axes, angles)
    mvecs[dgd == 0.0] = m0  # zero DGD leaves the lines as configured

    source_dop = mixture_dop_many(mvecs, lines.intensities)
    trace = PolarizationTrace.held(cfg.dt_s, lines.wavelengths, lines.intensities, poincare_round_trip(mvecs), 1)
    readout = singlet_meter_raw(trace, meter, rng_meter, lines.table)
    estimate = invert_meter_readout(readout[:, 0], meter, lines.table)
    records = list(map(PmdRecord._make, zip(
        dgd.tolist(), source_dop.tolist(), estimate.dop.tolist(), estimate.clipped.tolist()
    )))

    summary = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "degenerate_geometry": degenerate,
        "carrier_nm": carrier.carrier_nm,
        "bitrate_hz": carrier.bitrate_hz,
        "min_source_dop": float(source_dop.min()),
        "min_meter_dop": float(estimate.dop.min()),
        "dgd_at_min_source_dop": float(dgd[np.argmin(source_dop)]),
    }
    return RunResult(records, summary)


PMD_CSV_HEADER = PmdRecord._fields
PMD_CSV_ROW = "%.12g,%.12g,%.12g,%d\r\n"


def write_pmd_outputs(result: RunResult, records_csv: str | Path, summary_json: str | Path) -> None:
    with csv_writer(records_csv, PMD_CSV_HEADER, PMD_CSV_ROW) as write:
        write(result.records)
    _write_json(summary_json, result.summary)


def run_calibrate(cfg: ScenarioConfig) -> dict:
    """Measure a DOP-1 and a DOP-0 balanced reference through the configured
    meter and solve for (gain, dark_offset); returns the calibration record."""
    meter, lines = cfg.meter, line_set(cfg)
    rng_meter, _, _ = _streams(cfg.seed)

    m_base, m_anti = great_circle_vectors([0, 0], [0.0, 180.0])
    beams = np.array([[m_base, m_base], [m_base, m_anti]])  # DOP 1, then DOP 0
    mvecs = poincare_round_trip(beams[:, lines.order])
    trace = PolarizationTrace.held(cfg.dt_s, lines.wavelengths, lines.intensities, mvecs, cfg.calibrate.samples)
    means = singlet_meter_raw(trace, meter, rng_meter, lines.table).mean(axis=1).tolist()

    gain, dark = calibrate_from_references(means[0], means[1], meter.visibility, lines.table.c_bar)
    return {
        "gain": gain,
        "dark_offset": dark,
        "visibility": meter.visibility,
        "samples": cfg.calibrate.samples,
        "seed": cfg.seed,
        "readout_dop1_mean": means[0],
        "readout_dop0_mean": means[1],
    }


def write_calibration_output(record: dict, calibration_json: str | Path) -> None:
    _write_json(calibration_json, record)
