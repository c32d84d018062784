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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .channel import (
    FiberState,
    FluctuationProcess,
    evolve_window,
    fiber_trace,
    pmd_turns,
)
from .instruments import (
    CrystalStack,
    MeterConfig,
    PolarimeterConfig,
    PolarizationTrace,
    acceptance_bandwidth,
    calibrate_from_references,
    invert_meter_readout,
    pair_normalization,
    pair_table,
    polarimeter_dop,
    singlet_meter_raw,
)
from .polcore import (
    DopsimError,
    InvariantError,
    PoincareVector,
    check_pure_states,
    mixture_dop_many,
    poincare_round_trip,
    rotate_poincare_many,
)
from .sources import (
    great_circle_pair,
    great_circle_vectors,
    modulated_carrier_source,
    modulation_wavelength_offset_nm,
    source_dop,
    two_laser_source,
)

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
        n = math.sqrt(sum(v * v for v in values))
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
class ChannelSettings:
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    retardance_mean_rad: float = 2.5
    retardance_sigma_rad: float = 0.5
    axis_diffusion_rad2_per_s: float = 10.0
    correlation_time_s: float = 0.1
    ref_wavelength_nm: float | None = None
    seed: int | None = None


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


def _check_pairs(
    meter: MeterConfig,
    wavelengths_nm: Sequence[float],
    wavelength_field: str,
    intensities: Sequence[float] | None = None,
    intensity_field: str | None = None,
) -> None:
    """A line set the meter cannot see -- no pair within the acceptance, or
    (given intensities) none with light in both lines -- is a config error
    naming the field that emptied it; so is a pair whose intensity product,
    the meter's weight for it, overflows."""
    pairs = pair_table(wavelengths_nm, meter)
    if not pairs:
        raise ConfigError(
            f"{wavelength_field}: no line pair within the meter acceptance "
            f"({acceptance_bandwidth(meter.stack):.6g} nm)"
        )
    if intensities is None:
        return
    weights = [intensities[i] * intensities[j] for i, j, _ in pairs]
    if not any(w > 0.0 for w in weights):
        raise ConfigError(f"{intensity_field}: no line pair within the meter acceptance carries light")
    if not all(map(math.isfinite, weights)):
        raise ConfigError(f"{intensity_field}: the intensity product of a line pair overflows")


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
    if src is not None:
        if src.lambda1_nm == src.lambda2_nm:
            raise ConfigError("source.lambda2_nm: must differ from lambda1_nm")
        if not 0.0 < src.intensity1 + src.intensity2 < math.inf:
            raise ConfigError("source.intensity1: total intensity must be > 0 and finite")
        if cfg.calibrate is not None:  # the references are balanced whatever the intensities
            _check_pairs(meter, sorted([src.lambda1_nm, src.lambda2_nm]), "source.lambda2_nm")
        else:
            lines = sorted([(src.lambda1_nm, src.intensity1), (src.lambda2_nm, src.intensity2)])
            intensity_field = "source.intensity1" if src.intensity1 == 0.0 else "source.intensity2"
            wavelengths, intensities = [w for w, _ in lines], [i for _, i in lines]
            _check_pairs(meter, wavelengths, "source.lambda2_nm", intensities, intensity_field)

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
        total = src.intensity1 + src.intensity2
        if not math.isfinite(total * total):  # the polarimeter's |S|^2 <= S0^2
            heavier = "source.intensity1" if src.intensity1 >= src.intensity2 else "source.intensity2"
            raise ConfigError(f"{heavier}: the squared Stokes magnitude (intensity1 + intensity2)^2 overflows")
        window = _samples(shake.window_s, cfg.dt_s, "shake.window_s")
        integration_s, label = cfg.polarimeter.integration_time_s, "polarimeter.integration_time_s"
        if integration_s is not None and _samples(integration_s, cfg.dt_s, label) > window:
            raise ConfigError(f"{label}: {integration_s} s exceeds shake.window_s ({shake.window_s} s)")

    carrier = cfg.carrier
    if carrier is not None:
        if not 0.0 < sum(carrier.intensity_split) < math.inf:
            raise ConfigError("source.intensity_split: weights must have a positive finite sum")
        if not math.isfinite(carrier.carrier_nm * carrier.carrier_nm):
            raise ConfigError("source.carrier_nm: the sideband offset lambda^2 f / c overflows")
        offset = modulation_wavelength_offset_nm(carrier.carrier_nm, carrier.bitrate_hz)
        wavelengths = (carrier.carrier_nm - offset, carrier.carrier_nm, carrier.carrier_nm + offset)
        if not 0.0 < wavelengths[0] < wavelengths[1] < wavelengths[2] < math.inf:
            raise ConfigError(f"source.bitrate_hz: sidebands {offset:.6g} nm off the carrier are not distinct lines")
        _check_pairs(meter, wavelengths, "source.bitrate_hz", carrier.intensity_split, "source.intensity_split")
        pmd = cfg.pmd
        if pmd.dgd_stop_s <= pmd.dgd_start_s:
            raise ConfigError("pmd.dgd_stop_s: must exceed dgd_start_s")
        turns = pmd_turns(wavelengths, carrier.carrier_nm).tolist()
        if not all(math.isfinite(pmd.dgd_stop_s * turn) for turn in turns):
            raise ConfigError("pmd.dgd_stop_s: turns the sidebands by a non-finite angle")


# ---------------------------------------------------------------------------
# deterministic stream derivation and output formatting
# ---------------------------------------------------------------------------


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator, int]:
    """(channel rng, meter rng, polarimeter rng, derived channel seed)."""
    children = np.random.SeedSequence(seed).spawn(3)
    derived_channel_seed = int(children[0].generate_state(1)[0])
    return (
        np.random.default_rng(derived_channel_seed),
        np.random.default_rng(children[1]),
        np.random.default_rng(children[2]),
        derived_channel_seed,
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
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    return obj


def _write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_json_ready(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    circle: int
    base_idx: int
    two_phi_deg: float
    true_dop: float
    one_minus_dop2: float
    readout_mean: float
    readout_std: float


@dataclass(frozen=True)
class ScanResult:
    records: list[ScanRecord]
    slope: float
    intercept: float
    r_squared: float
    predicted_slope: float
    predicted_intercept: float
    per_level: list[dict]
    summary: dict


def predicted_scan_line(cfg: ScenarioConfig) -> tuple[float, float]:
    """Analytic (slope, intercept) of readout vs 1 - DOP^2 for the meter and
    two-laser source in the config, valid for the noiseless model."""
    src = cfg.two_laser
    meter = cfg.meter
    ((_, _, c),) = pair_table(sorted([src.lambda1_nm, src.lambda2_nm]), meter)
    k = pair_normalization((src.intensity1, src.intensity2))
    slope = meter.gain * meter.visibility * (1.0 - c) / (4.0 * k)
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


def run_fig2_scan(cfg: ScenarioConfig) -> ScanResult:
    """All scan points in one array pass, in record order (circle, then base
    state, then level): the same records, bit for bit, as building one
    two-laser beam per point and reading it alone."""
    scan, src_cfg, meter = cfg.scan, cfg.two_laser, cfg.meter
    _, rng_meter, _, _ = _streams(cfg.seed)

    circle, base_idx, two_phi = (
        a.ravel()
        for a in np.meshgrid(scan.circles, np.arange(scan.base_count), scan.two_phi_deg, indexing="ij")
    )
    base_angle = base_idx * scan.base_step_deg
    m1 = great_circle_vectors(circle, base_angle)
    m2 = great_circle_vectors(circle, base_angle + two_phi)
    check_pure_states(np.stack([m1, m2]), "two_laser_source")
    # lines in wavelength order, as two_laser_source sorts them
    lines = [(src_cfg.lambda1_nm, src_cfg.intensity1, m1), (src_cfg.lambda2_nm, src_cfg.intensity2, m2)]
    lines.sort(key=lambda line: line[0])
    wavelengths, intensities = [w for w, _, _ in lines], [i for _, i, _ in lines]
    mvecs = np.stack([m for _, _, m in lines], axis=1)
    pairs = pair_table(wavelengths, meter)

    true_dop = mixture_dop_many(mvecs, intensities).tolist()
    # Python float ``**2`` (libm pow), which differs from x * x in the last bit for some x
    one_minus_dop2 = [1.0 - d**2 for d in true_dop]
    x = np.array(one_minus_dop2)
    beams = poincare_round_trip(mvecs)
    n = scan.samples_per_point
    block = max(1, BLOCK_SAMPLES // n)
    means, stds = [], []
    for lo in range(0, len(beams), block):
        trace = PolarizationTrace.held(cfg.dt_s, wavelengths, intensities, beams[lo:lo + block], n)
        readout = singlet_meter_raw(trace, meter, rng_meter if meter.noise_sigma_rel > 0.0 else None, pairs)
        means.append(readout.mean(axis=1))
        stds.append(readout.std(axis=1))
    readout_mean, readout_std = np.concatenate(means), np.concatenate(stds)

    records = [
        ScanRecord(*row)
        for row in zip(
            circle.tolist(), base_idx.tolist(), two_phi.tolist(), true_dop, one_minus_dop2,
            readout_mean.tolist(), readout_std.tolist(),
        )
    ]
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
    return ScanResult(records, slope, intercept, r_squared, predicted_slope, predicted_intercept, per_level, summary)


SCAN_CSV_HEADER = (
    "circle", "base_idx", "two_phi_deg", "true_dop", "one_minus_dop2", "readout_mean", "readout_std",
)
SCAN_CSV_ROW = "%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g\r\n"


def write_scan_outputs(result: ScanResult, records_csv: str | Path, summary_json: str | Path) -> None:
    with csv_writer(records_csv, SCAN_CSV_HEADER, SCAN_CSV_ROW) as write:
        write([
            (r.circle, r.base_idx, r.two_phi_deg, r.true_dop, r.one_minus_dop2, r.readout_mean, r.readout_std)
            for r in result.records
        ])
    _write_json(summary_json, result.summary)


@dataclass(frozen=True)
class ShakeRecord:
    window: int
    t_start_s: float
    t_end_s: float
    shaken: bool
    meter_readout_mean: float
    meter_dop: float
    meter_clipped: bool
    polarimeter_dop: float


@dataclass(frozen=True)
class ShakeResult:
    records: list[ShakeRecord]
    reference_meter_dop: float
    summary: dict


def _sphere_angles(m: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Sphere angle of each row of m (n, 3) from ref (3,), as poincare_angle."""
    cos = (m @ ref) / (np.linalg.norm(m, axis=1) * np.linalg.norm(ref))
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _held_fiber(fiber: FiberState, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n samples of an unshaken fiber: axes (n, 3), retardances (n,)."""
    return np.broadcast_to(np.array(fiber.axis, dtype=float), (n, 3)), np.full(n, fiber.retardance_ref_rad)


TRAJECTORY_CSV_HEADER = ("time_s", "axis1", "axis2", "axis3", "retardance_rad")
TRAJECTORY_CSV_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g\r\n"


def run_fig3_shake(cfg: ScenarioConfig, trajectory_csv: str | Path | None = None) -> ShakeResult:
    """The shake run in blocks of whole windows, at most ``BLOCK_SAMPLES``
    samples each (one window when a window is longer).  A block takes one
    ``evolve_window`` call for its shaken windows, one ``fiber_trace``, one
    meter, inversion and polarimeter call on the batch of its windows, and
    one sphere-angle call: the same records and channel stream, bit for bit,
    as advancing and reading the windows one by one.

    Given ``trajectory_csv``, each block's fiber states go there as the block
    is made, one row per sample (time_s, axis1..3, retardance_rad), so memory
    does not grow with the run length; the file takes its name when the run
    ends and is removed if the run fails.
    """
    shake, src_cfg, chan, meter = cfg.shake, cfg.two_laser, cfg.channel, cfg.meter
    rng_channel, rng_meter, rng_pol, derived_seed = _streams(cfg.seed)
    channel_seed = chan.seed if chan.seed is not None else derived_seed
    if chan.seed is not None:
        rng_channel = np.random.default_rng(chan.seed)

    m1, m2 = great_circle_pair(shake.circle_index, shake.base_angle_deg, shake.two_phi_deg)
    src = two_laser_source(
        src_cfg.lambda1_nm, src_cfg.lambda2_nm, src_cfg.intensity1, src_cfg.intensity2, m1, m2
    )
    ref_wavelength = chan.ref_wavelength_nm
    if ref_wavelength is None:
        ref_wavelength = src.wavelengths_nm()[0]
    process = FluctuationProcess(
        correlation_time_s=chan.correlation_time_s,
        axis_diffusion_rad2_per_s=chan.axis_diffusion_rad2_per_s,
        retardance_sigma_rad=chan.retardance_sigma_rad,
        retardance_mean_rad=chan.retardance_mean_rad,
    )
    fiber = FiberState(chan.axis, chan.retardance_mean_rad, ref_wavelength)
    wavelengths, intensities = src.wavelengths_nm(), src.intensities()
    pairs = pair_table(wavelengths, meter)

    n = int(round(shake.window_s / cfg.dt_s))
    last = shake.windows - 1  # the first and last windows are unshaken
    block = max(1, BLOCK_SAMPLES // n)
    meter_noisy = meter.noise_sigma_rel > 0.0
    pol_noisy = cfg.polarimeter.noise_sigma_rel > 0.0

    records: list[ShakeRecord] = []
    deflection_sum, deflection_max = 0.0, 0.0  # over the shaken samples
    trajectory = nullcontext() if trajectory_csv is None else csv_writer(
        trajectory_csv, TRAJECTORY_CSV_HEADER, TRAJECTORY_CSV_ROW
    )
    with trajectory as write_trajectory:
        for lo in range(0, shake.windows, block):
            hi = min(lo + block, shake.windows)
            first, stop = max(lo, 1), min(hi, last)  # the block's shaken windows
            segments = []
            if lo == 0:
                segments.append(_held_fiber(fiber, n))
            if first < stop:
                walk = evolve_window(fiber, cfg.dt_s, (stop - first) * n, process, rng_channel)
                segments.append(walk)
                fiber = FiberState(tuple(walk[0][-1].tolist()), float(walk[1][-1]), ref_wavelength)
            if hi > last:
                segments.append(_held_fiber(fiber, n))
            axes = np.concatenate([a for a, _ in segments])
            retardances = np.concatenate([r for _, r in segments])
            if write_trajectory is not None:
                write_trajectory(np.column_stack((np.arange(lo * n, hi * n) * cfg.dt_s, axes, retardances)))

            lines = fiber_trace(src, axes, retardances, ref_wavelength, cfg.dt_s)
            batch = (hi - lo, n, len(wavelengths))  # the block's windows as a batch of beams
            trace = PolarizationTrace(
                cfg.dt_s,
                lines.wavelengths,
                np.broadcast_to(lines.intensities[0], batch),
                lines.poincare.reshape(batch + (3,)),
            )
            line1 = lines.poincare[:, 0, :]
            if lo == 0:
                reference_m1 = line1[0]
            if first < stop:
                angles = _sphere_angles(line1[(first - lo) * n:(stop - lo) * n], reference_m1)
                deflection_sum += float(angles.sum())
                deflection_max = max(deflection_max, float(angles.max()))

            readout_mean = singlet_meter_raw(trace, meter, rng_meter if meter_noisy else None, pairs).mean(axis=1)
            estimate = invert_meter_readout(readout_mean, meter, wavelengths, intensities, pairs)
            pol = polarimeter_dop(trace, cfg.polarimeter, rng_pol if pol_noisy else None).mean(axis=1)
            records.extend(
                ShakeRecord(
                    window=window,
                    t_start_s=window * shake.window_s,
                    t_end_s=(window + 1) * shake.window_s,
                    shaken=0 < window < last,
                    meter_readout_mean=r,
                    meter_dop=d,
                    meter_clipped=c,
                    polarimeter_dop=p,
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
        "source_dop": source_dop(src),
        "reference_meter_dop": reference,
        "reference_polarimeter_dop": 0.5 * (records[0].polarimeter_dop + records[-1].polarimeter_dop),
        "max_meter_deviation": max(abs(r.meter_dop - reference) for r in records),
        "min_shaken_polarimeter_dop": min(r.polarimeter_dop for r in shaken_records),
        "mean_shaken_polarimeter_dop": float(np.mean([r.polarimeter_dop for r in shaken_records])),
        # windows >= 3, so at least one window of n samples is shaken
        "scrambling_mean_deflection_rad": deflection_sum / ((last - 1) * n),
        "scrambling_max_deflection_rad": deflection_max,
    }
    return ShakeResult(records, reference, summary)


SHAKE_CSV_HEADER = (
    "window", "t_start_s", "t_end_s", "shaken",
    "meter_readout_mean", "meter_dop", "meter_clipped", "polarimeter_dop",
)
SHAKE_CSV_ROW = "%d,%.12g,%.12g,%d,%.12g,%.12g,%d,%.12g\r\n"


def write_shake_outputs(result: ShakeResult, records_csv: str | Path, summary_json: str | Path) -> None:
    """The window records and the summary; the runner streams the trajectory."""
    with csv_writer(records_csv, SHAKE_CSV_HEADER, SHAKE_CSV_ROW) as write:
        write([
            (
                r.window, r.t_start_s, r.t_end_s, r.shaken,
                r.meter_readout_mean, r.meter_dop, r.meter_clipped, r.polarimeter_dop,
            )
            for r in result.records
        ])
    _write_json(summary_json, result.summary)


@dataclass(frozen=True)
class PmdRecord:
    dgd_s: float
    source_dop: float
    meter_dop: float
    meter_clipped: bool


@dataclass(frozen=True)
class PmdResult:
    records: list[PmdRecord]
    degenerate_geometry: bool
    summary: dict


def run_pmd_sweep(cfg: ScenarioConfig) -> PmdResult:
    """All DGD steps in one array pass: the same records, bit for bit, as
    applying one PmdElement per step and reading each beam alone."""
    carrier, pmd, meter = cfg.carrier, cfg.pmd, cfg.meter
    _, rng_meter, _, _ = _streams(cfg.seed)

    m0 = PoincareVector.from_array(carrier.poincare)
    src0 = modulated_carrier_source(
        carrier.carrier_nm, carrier.bitrate_hz, m0, m0, m0, carrier.intensity_split
    )
    wavelengths, intensities = src0.wavelengths_nm(), src0.intensities()
    pairs = pair_table(wavelengths, meter)
    axis = np.asarray(pmd.axis, dtype=float)
    axis_norm = np.linalg.norm(axis)
    alignment = abs(float(axis @ m0.as_array()) / (axis_norm * m0.norm()))
    degenerate = alignment > 1.0 - 1e-9

    dgd = np.linspace(pmd.dgd_start_s, pmd.dgd_stop_s, pmd.dgd_steps)
    # each step's lines as channel.apply_pmd turns them; zero DGD leaves the
    # source as built from m0
    angles = dgd[:, None] * pmd_turns(wavelengths, carrier.carrier_nm)
    axes = np.broadcast_to(axis / axis_norm, (len(dgd), 3))
    rotated = rotate_poincare_many([line.poincare() for line in src0.lines], axes, angles)
    mvecs = np.where((dgd == 0.0)[:, None, None], m0.as_array(), rotated)

    source_dop = mixture_dop_many(mvecs, intensities)
    trace = PolarizationTrace.held(cfg.dt_s, wavelengths, intensities, poincare_round_trip(mvecs), 1)
    readout = singlet_meter_raw(trace, meter, rng_meter if meter.noise_sigma_rel > 0.0 else None, pairs)
    estimate = invert_meter_readout(readout[:, 0], meter, wavelengths, intensities, pairs)
    records = [
        PmdRecord(*row)
        for row in zip(dgd.tolist(), source_dop.tolist(), estimate.dop.tolist(), estimate.clipped.tolist())
    ]

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
    return PmdResult(records, degenerate, summary)


PMD_CSV_HEADER = ("dgd_s", "source_dop", "meter_dop", "meter_clipped")
PMD_CSV_ROW = "%.12g,%.12g,%.12g,%d\r\n"


def write_pmd_outputs(result: PmdResult, records_csv: str | Path, summary_json: str | Path) -> None:
    with csv_writer(records_csv, PMD_CSV_HEADER, PMD_CSV_ROW) as write:
        write([(r.dgd_s, r.source_dop, r.meter_dop, r.meter_clipped) for r in result.records])
    _write_json(summary_json, result.summary)


def run_calibrate(cfg: ScenarioConfig) -> dict:
    """Measure a DOP-1 and a DOP-0 balanced reference through the configured
    meter and solve for (gain, dark_offset); returns the calibration record."""
    src_cfg, meter = cfg.two_laser, cfg.meter
    _, rng_meter, _, _ = _streams(cfg.seed)
    noisy = meter.noise_sigma_rel > 0.0
    # the references are balanced whatever the configured intensities
    pairs = pair_table(sorted([src_cfg.lambda1_nm, src_cfg.lambda2_nm]), meter)
    ((_, _, contamination),) = pairs

    m_base, m_anti = great_circle_pair(0, 0.0, 180.0)
    references = {
        "dop1": two_laser_source(src_cfg.lambda1_nm, src_cfg.lambda2_nm, 1.0, 1.0, m_base, m_base),
        "dop0": two_laser_source(src_cfg.lambda1_nm, src_cfg.lambda2_nm, 1.0, 1.0, m_base, m_anti),
    }
    means = {}
    for label, src in references.items():
        trace = PolarizationTrace.static(src, cfg.calibrate.samples, cfg.dt_s)
        readout = singlet_meter_raw(trace, meter, rng_meter if noisy else None, pairs=pairs)
        means[label] = float(readout.mean())

    gain, dark = calibrate_from_references(
        means["dop1"], means["dop0"], meter.visibility, contamination
    )
    return {
        "gain": gain,
        "dark_offset": dark,
        "visibility": meter.visibility,
        "samples": cfg.calibrate.samples,
        "seed": cfg.seed,
        "readout_dop1_mean": means["dop1"],
        "readout_dop0_mean": means["dop0"],
    }


def write_calibration_output(record: dict, calibration_json: str | Path) -> None:
    _write_json(calibration_json, record)
