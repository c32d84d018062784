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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .channel import (
    FiberState,
    FluctuationProcess,
    evolve_window,
    fiber_trace,
    pmd_turns,
    write_trajectory_csv,
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
    source_dop,
    two_laser_source,
)

SCENARIOS = ("fig2_scan", "fig3_shake", "pmd_sweep", "calibrate")

DEFAULT_SEED_ENV = "DOPSIM_SEED"


class ConfigError(DopsimError):
    """Configuration rejected; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


class _Node:
    """Dict wrapper tracking a field path for error messages and unknown keys."""

    def __init__(self, data: dict, path: str = ""):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        self._data = data
        self._path = path
        self._seen: set[str] = set()

    def _label(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def child(self, key: str) -> "_Node | None":
        self._seen.add(key)
        if key not in self._data:
            return None
        return _Node(self._data[key], self._label(key))

    def get(self, key: str, default=None):
        self._seen.add(key)
        return self._data.get(key, default)

    def get_number(self, key, default=None, minimum=None, maximum=None, exclusive_min=None):
        value = self.get(key, default)
        if value is None:
            raise ConfigError(f"{self._label(key)}: required")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{self._label(key)}: expected a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"{self._label(key)}: must be finite")
        if exclusive_min is not None and value <= exclusive_min:
            raise ConfigError(f"{self._label(key)}: must be > {exclusive_min}, got {value}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self._label(key)}: must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{self._label(key)}: must be <= {maximum}, got {value}")
        return value

    def get_int(self, key, default=None, minimum=None):
        value = self.get(key, default)
        if value is None:
            raise ConfigError(f"{self._label(key)}: required")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{self._label(key)}: expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self._label(key)}: must be >= {minimum}, got {value}")
        return value

    def get_str(self, key, default=None, choices=None):
        value = self.get(key, default)
        if value is None:
            raise ConfigError(f"{self._label(key)}: required")
        if not isinstance(value, str):
            raise ConfigError(f"{self._label(key)}: expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(f"{self._label(key)}: expected one of {sorted(choices)}, got {value!r}")
        return value

    def get_vector(self, key, length, default=None):
        value = self.get(key, default)
        if value is None:
            raise ConfigError(f"{self._label(key)}: required")
        if not isinstance(value, (list, tuple)) or len(value) != length:
            raise ConfigError(f"{self._label(key)}: expected a list of {length} numbers")
        try:
            return tuple(float(v) for v in value)
        except (TypeError, ValueError):
            raise ConfigError(f"{self._label(key)}: expected a list of {length} numbers")

    def finish(self) -> None:
        unknown = set(self._data) - self._seen
        if unknown:
            where = self._path or "config"
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


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
    seed: int
    dt_s: float
    duration_s: float
    meter: MeterConfig
    output: OutputPaths
    two_laser: TwoLaserSettings | None = None
    scan: ScanSettings | None = None
    shake: ShakeSettings | None = None
    channel: ChannelSettings | None = None
    polarimeter: PolarimeterConfig | None = None
    carrier: CarrierSettings | None = None
    pmd: PmdSettings | None = None
    calibrate: CalibrateSettings | None = None


def _parse_stack(node: _Node | None) -> CrystalStack:
    if node is None:
        return CrystalStack()
    try:
        stack = CrystalStack(
            element_length_mm=node.get_number("element_length_mm", 3.0, exclusive_min=0.0),
            elements_per_stage=node.get_int("elements_per_stage", 4, minimum=1),
            stages=node.get_int("stages", 2),
            reference_acceptance_nm=node.get_number("reference_acceptance_nm", 4.5, exclusive_min=0.0),
            reference_length_mm=node.get_number("reference_length_mm", 12.0, exclusive_min=0.0),
        )
    except InvariantError as exc:
        raise ConfigError(f"meter.stack: {exc}")
    node.finish()
    return stack


def _parse_meter(node: _Node | None, default_noise: float) -> MeterConfig:
    if node is None:
        return MeterConfig(noise_sigma_rel=default_noise)
    cfg = MeterConfig(
        stack=_parse_stack(node.child("stack")),
        visibility=node.get_number("visibility", 0.96, minimum=0.0, maximum=1.0),
        stage_phase_rad=node.get_number("stage_phase_rad", 0.0),
        gain=node.get_number("gain", 1.0, exclusive_min=0.0),
        dark_offset=node.get_number("dark_offset", 0.0),
        noise_sigma_rel=node.get_number("noise_sigma_rel", default_noise, minimum=0.0),
        response_time_s=node.get_number("response_time_s", 1e-3, exclusive_min=0.0),
        min_separation_nm=node.get_number("min_separation_nm", 1.5, minimum=0.0),
    )
    node.finish()
    return cfg


def _normalized_axis(vec: tuple[float, ...], path: str) -> tuple[float, float, float]:
    n = math.sqrt(sum(v * v for v in vec))
    if not math.isfinite(n) or n == 0.0:
        raise ConfigError(f"{path}: must be a finite nonzero 3-vector")
    return (vec[0] / n, vec[1] / n, vec[2] / n)


def _parse_two_laser(node: _Node | None) -> TwoLaserSettings:
    if node is None:
        return TwoLaserSettings()
    settings = TwoLaserSettings(
        lambda1_nm=node.get_number("lambda1_nm", 1552.0, exclusive_min=0.0),
        lambda2_nm=node.get_number("lambda2_nm", 1554.0, exclusive_min=0.0),
        intensity1=node.get_number("intensity1", 1.0, minimum=0.0),
        intensity2=node.get_number("intensity2", 1.0, minimum=0.0),
    )
    node.finish()
    if settings.lambda1_nm == settings.lambda2_nm:
        raise ConfigError("source.lambda2_nm: must differ from lambda1_nm")
    if settings.intensity1 + settings.intensity2 <= 0.0:
        raise ConfigError("source.intensity1: total intensity must be > 0")
    return settings


def _parse_output(node: _Node | None) -> OutputPaths:
    if node is None:
        return OutputPaths()
    out = OutputPaths(
        records_csv=node.get("records_csv"),
        summary_json=node.get("summary_json"),
        trajectory_csv=node.get("trajectory_csv"),
        calibration_json=node.get("calibration_json"),
    )
    node.finish()
    for label in ("records_csv", "summary_json", "trajectory_csv", "calibration_json"):
        value = getattr(out, label)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"output.{label}: expected a string path")
    return out


def load_config(
    doc: dict,
    seed_override: int | None = None,
    noise_off: bool = False,
) -> ScenarioConfig:
    """Validate a raw JSON document into a ScenarioConfig.

    Seed precedence: explicit override, then the config value, then the
    DOPSIM_SEED environment variable, then 0.
    """
    root = _Node(doc)
    scenario = root.get_str("scenario", choices=set(SCENARIOS))

    seed = root.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise ConfigError(f"seed: expected a non-negative integer, got {seed!r}")
    if seed_override is not None:
        seed = seed_override
    if seed is None:
        env = os.environ.get(DEFAULT_SEED_ENV)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"{DEFAULT_SEED_ENV}: expected an integer, got {env!r}")
    if seed is None:
        seed = 0

    default_dt = {"fig2_scan": 1.0, "fig3_shake": 1e-3, "pmd_sweep": 1.0, "calibrate": 1.0}[scenario]
    dt_s = root.get_number("dt_s", default_dt, exclusive_min=0.0)

    two_laser = scan = shake = channel = polarimeter = carrier = pmd = calibrate = None
    default_meter_noise = 0.15 if scenario in ("fig2_scan", "fig3_shake", "calibrate") else 0.0
    meter = _parse_meter(root.child("meter"), default_meter_noise)

    if scenario == "fig2_scan":
        two_laser = _parse_two_laser(root.child("source"))
        node = root.child("scan")
        if node is None:
            scan = ScanSettings()
        else:
            circles = node.get("circles", [0, 1, 2])
            if not isinstance(circles, list) or not circles or any(
                isinstance(c, bool) or not isinstance(c, int) or c not in (0, 1, 2) for c in circles
            ):
                raise ConfigError("scan.circles: expected a non-empty list drawn from [0, 1, 2]")
            levels = node.get("two_phi_deg", [float(x) for x in range(0, 100, 10)])
            if not isinstance(levels, list) or not levels or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) for v in levels
            ):
                raise ConfigError("scan.two_phi_deg: expected a non-empty list of angles")
            scan = ScanSettings(
                circles=tuple(circles),
                base_count=node.get_int("base_count", 5, minimum=1),
                base_step_deg=node.get_number("base_step_deg", 40.0),
                two_phi_deg=tuple(float(v) for v in levels),
                samples_per_point=node.get_int("samples_per_point", 1, minimum=1),
                normalization=node.get_str("normalization", "global", choices={"global", "per_circle"}),
            )
            node.finish()
        duration_s = scan.samples_per_point * dt_s
    elif scenario == "fig3_shake":
        two_laser = _parse_two_laser(root.child("source"))
        node = root.child("shake")
        if node is None:
            shake = ShakeSettings()
        else:
            shake = ShakeSettings(
                windows=node.get_int("windows", 10, minimum=3),
                window_s=node.get_number("window_s", 10.0, exclusive_min=0.0),
                two_phi_deg=node.get_number("two_phi_deg", 0.0),
                circle_index=node.get_int("circle_index", 0),
                base_angle_deg=node.get_number("base_angle_deg", 0.0),
            )
            node.finish()
            if shake.circle_index not in (0, 1, 2):
                raise ConfigError("shake.circle_index: must be 0, 1 or 2")
        node = root.child("channel")
        if node is None:
            channel = ChannelSettings()
        else:
            chan_seed = None
            if node.get("seed") is not None:
                chan_seed = node.get_int("seed", minimum=0)
            ref_wavelength = None
            if node.get("ref_wavelength_nm") is not None:
                ref_wavelength = node.get_number("ref_wavelength_nm", exclusive_min=0.0)
            channel = ChannelSettings(
                axis=_normalized_axis(
                    node.get_vector("axis", 3, default=(0.0, 0.0, 1.0)), "channel.axis"
                ),
                retardance_mean_rad=node.get_number("retardance_mean_rad", 2.5),
                retardance_sigma_rad=node.get_number("retardance_sigma_rad", 0.5, minimum=0.0),
                axis_diffusion_rad2_per_s=node.get_number("axis_diffusion_rad2_per_s", 10.0, minimum=0.0),
                correlation_time_s=node.get_number("correlation_time_s", 0.1, exclusive_min=0.0),
                ref_wavelength_nm=ref_wavelength,
                seed=chan_seed,
            )
            node.finish()
        node = root.child("polarimeter")
        if node is None:
            polarimeter = PolarimeterConfig(integration_time_s=shake.window_s, noise_sigma_rel=0.01)
        else:
            polarimeter = PolarimeterConfig(
                integration_time_s=node.get_number("integration_time_s", shake.window_s, exclusive_min=0.0),
                noise_sigma_rel=node.get_number("noise_sigma_rel", 0.01, minimum=0.0),
            )
            node.finish()
        duration_s = shake.windows * shake.window_s
        window_samples = int(round(shake.window_s / dt_s))
        if window_samples < 1:
            raise ConfigError("shake.window_s: shorter than one sample interval")
        integration_samples = int(round(polarimeter.integration_time_s / dt_s))
        if integration_samples < 1:
            raise ConfigError("polarimeter.integration_time_s: shorter than one sample interval")
        if integration_samples > window_samples:
            raise ConfigError(
                f"polarimeter.integration_time_s: {polarimeter.integration_time_s} s exceeds "
                f"shake.window_s ({shake.window_s} s)"
            )
    elif scenario == "pmd_sweep":
        node = root.child("source")
        if node is None:
            carrier = CarrierSettings()
        else:
            carrier = CarrierSettings(
                carrier_nm=node.get_number("carrier_nm", 1550.0, exclusive_min=0.0),
                bitrate_hz=node.get_number("bitrate_hz", 2.0e11, exclusive_min=0.0),
                poincare=_normalized_axis(
                    node.get_vector("poincare", 3, default=(0.0, 0.0, 1.0)), "source.poincare"
                ),
                intensity_split=node.get_vector("intensity_split", 3, default=(0.25, 0.5, 0.25)),
            )
            node.finish()
            if sum(carrier.intensity_split) <= 0.0 or any(w < 0.0 for w in carrier.intensity_split):
                raise ConfigError("source.intensity_split: weights must be >= 0 with positive sum")
        node = root.child("pmd")
        if node is None:
            pmd = PmdSettings()
        else:
            pmd = PmdSettings(
                axis=_normalized_axis(
                    node.get_vector("axis", 3, default=(1.0, 0.0, 0.0)), "pmd.axis"
                ),
                dgd_start_s=node.get_number("dgd_start_s", 0.0, minimum=0.0),
                dgd_stop_s=node.get_number("dgd_stop_s", 2.5e-12, exclusive_min=0.0),
                dgd_steps=node.get_int("dgd_steps", 26, minimum=2),
            )
            node.finish()
            if pmd.dgd_stop_s <= pmd.dgd_start_s:
                raise ConfigError("pmd.dgd_stop_s: must exceed dgd_start_s")
        duration_s = dt_s
    else:  # calibrate
        two_laser = _parse_two_laser(root.child("source"))
        node = root.child("calibration")
        if node is None:
            calibrate = CalibrateSettings()
        else:
            calibrate = CalibrateSettings(samples=node.get_int("samples", 1000, minimum=1))
            node.finish()
        duration_s = calibrate.samples * dt_s

    output = _parse_output(root.child("output"))
    root.finish()

    if noise_off:
        meter = replace(meter, noise_sigma_rel=0.0)
        if polarimeter is not None:
            polarimeter = replace(polarimeter, noise_sigma_rel=0.0)

    if duration_s < dt_s:
        raise ConfigError("duration_s: must cover at least one sample interval")

    return ScenarioConfig(
        scenario=scenario,
        seed=seed,
        dt_s=dt_s,
        duration_s=duration_s,
        meter=meter,
        output=output,
        two_laser=two_laser,
        scan=scan,
        shake=shake,
        channel=channel,
        polarimeter=polarimeter,
        carrier=carrier,
        pmd=pmd,
        calibrate=calibrate,
    )


def load_config_file(path: str | Path, **kwargs) -> ScenarioConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    return load_config(doc, **kwargs)


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


def _write_csv(path: str | Path, header: Sequence[str], row_template: str, rows) -> None:
    """CSV with CRLF line ends, each row rendered by one %-template: ``%d``
    for integers and booleans (1/0), ``%.12g`` for floats.  No field needs
    quoting, so these are the bytes csv.writer gives."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_template % row for row in rows)


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


#: Samples one instrument call holds at most, unless one scan point or
#: shake window is longer: the scan and the shake runners go in blocks of
#: whole points or windows, so memory does not grow with the run length.
BLOCK_SAMPLES = 2048


#: Smallest spread of 1 - DOP^2 over a scan's points that a line fit can
#: use.  Levels of one DOP -- one level repeated, or 2phi and 360 - 2phi --
#: leave a spread of a few ULPs, and a fit through it reports slopes near
#: 1e12; the records print 1 - DOP^2 to 12 digits, where it does not show.
SCAN_MIN_SPREAD = 1e-12


def _meter_pairs(
    meter: MeterConfig,
    wavelengths_nm: Sequence[float],
    wavelength_field: str,
    intensities: Sequence[float] | None = None,
    intensity_field: str | None = None,
) -> tuple[tuple[int, int, float], ...]:
    """The line set's pair table.  A set the meter cannot see -- no pair
    within the acceptance, or (given intensities) none with light in both
    lines -- is a config error naming the field that emptied it."""
    pairs = pair_table(wavelengths_nm, meter)
    if not pairs:
        raise ConfigError(
            f"{wavelength_field}: no line pair within the meter acceptance "
            f"({acceptance_bandwidth(meter.stack):.6g} nm)"
        )
    if intensities is not None and not any(intensities[i] * intensities[j] > 0.0 for i, j, _ in pairs):
        raise ConfigError(f"{intensity_field}: no line pair within the meter acceptance carries light")
    return pairs


def _two_laser_pairs(cfg: ScenarioConfig) -> tuple[tuple[int, int, float], ...]:
    src = cfg.two_laser
    lines = sorted([(src.lambda1_nm, src.intensity1), (src.lambda2_nm, src.intensity2)])
    dark = "source.intensity1" if src.intensity1 == 0.0 else "source.intensity2"
    return _meter_pairs(cfg.meter, [w for w, _ in lines], "source.lambda2_nm", [i for _, i in lines], dark)


def predicted_scan_line(cfg: ScenarioConfig) -> tuple[float, float]:
    """Analytic (slope, intercept) of readout vs 1 - DOP^2 for the meter and
    two-laser source in the config, valid for the noiseless model."""
    src = cfg.two_laser
    meter = cfg.meter
    ((_, _, c),) = _two_laser_pairs(cfg)
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
    if cfg.scenario != "fig2_scan":
        raise ConfigError(f"scenario: expected fig2_scan, got {cfg.scenario}")
    scan, src_cfg, meter = cfg.scan, cfg.two_laser, cfg.meter
    _, rng_meter, _, _ = _streams(cfg.seed)
    pairs = _two_laser_pairs(cfg)

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

    true_dop = mixture_dop_many(mvecs, intensities).tolist()
    # Python float ``**2`` (libm pow), which differs from x * x in the last bit for some x
    one_minus_dop2 = [1.0 - d**2 for d in true_dop]
    x = np.array(one_minus_dop2)
    if np.ptp(x) <= SCAN_MIN_SPREAD:
        raise ConfigError("scan.two_phi_deg: a line fit needs levels of at least two distinct DOPs")
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
    for level_deg in scan.two_phi_deg:
        at_level = two_phi == float(level_deg)
        values = readout_mean[at_level]
        if cfg.scan.normalization == "per_circle":
            normalized = []
            for c in scan.circles:
                ref = np.mean(readout_mean[(circle == c) & richest])
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
    _write_csv(
        records_csv,
        SCAN_CSV_HEADER,
        SCAN_CSV_ROW,
        (
            (r.circle, r.base_idx, r.two_phi_deg, r.true_dop, r.one_minus_dop2, r.readout_mean, r.readout_std)
            for r in result.records
        ),
    )
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


@dataclass(frozen=True, eq=False)
class ShakeResult:
    records: list[ShakeRecord]
    reference_meter_dop: float
    summary: dict
    #: fiber trajectory, one row per sample: times_s (n,), axes (n, 3),
    #: retardances (n,); kept only when the config asks for a trajectory CSV
    times_s: np.ndarray | None = None
    axes: np.ndarray | None = None
    retardances: np.ndarray | None = None


def _sphere_angles(m: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Sphere angle of each row of m (n, 3) from ref (3,), as poincare_angle."""
    cos = (m @ ref) / (np.linalg.norm(m, axis=1) * np.linalg.norm(ref))
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _held_fiber(fiber: FiberState, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n samples of an unshaken fiber: axes (n, 3), retardances (n,)."""
    return np.broadcast_to(np.array(fiber.axis, dtype=float), (n, 3)), np.full(n, fiber.retardance_ref_rad)


def run_fig3_shake(cfg: ScenarioConfig) -> ShakeResult:
    """The shake run in blocks of whole windows, at most ``BLOCK_SAMPLES``
    samples each (one window when a window is longer).  A block takes one
    ``evolve_window`` call for its shaken windows, one ``fiber_trace``, one
    meter, inversion and polarimeter call on the batch of its windows, and
    one sphere-angle call: the same records, trajectory and channel stream,
    bit for bit, as advancing and reading the windows one by one."""
    if cfg.scenario != "fig3_shake":
        raise ConfigError(f"scenario: expected fig3_shake, got {cfg.scenario}")
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
    pairs = _two_laser_pairs(cfg)
    keep_trajectory = cfg.output.trajectory_csv is not None

    n = int(round(shake.window_s / cfg.dt_s))
    last = shake.windows - 1  # the first and last windows are unshaken
    block = max(1, BLOCK_SAMPLES // n)
    meter_noisy = meter.noise_sigma_rel > 0.0
    pol_noisy = cfg.polarimeter.noise_sigma_rel > 0.0

    records: list[ShakeRecord] = []
    axes_path: list[np.ndarray] = []
    retardance_path: list[np.ndarray] = []
    deflections: list[np.ndarray] = []
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
        if keep_trajectory:
            axes_path.append(axes)
            retardance_path.append(retardances)

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
            deflections.append(_sphere_angles(line1[(first - lo) * n:(stop - lo) * n], reference_m1))

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

    deflection = np.concatenate(deflections) if deflections else np.zeros(0)
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
        "min_shaken_polarimeter_dop": min((r.polarimeter_dop for r in shaken_records), default=math.nan),
        "mean_shaken_polarimeter_dop": (
            float(np.mean([r.polarimeter_dop for r in shaken_records])) if shaken_records else math.nan
        ),
        "scrambling_mean_deflection_rad": float(np.mean(deflection)) if deflection.size else 0.0,
        "scrambling_max_deflection_rad": float(np.max(deflection)) if deflection.size else 0.0,
    }
    if not keep_trajectory:
        return ShakeResult(records, reference, summary)
    return ShakeResult(
        records,
        reference,
        summary,
        times_s=np.arange(shake.windows * n) * cfg.dt_s,
        axes=np.concatenate(axes_path),
        retardances=np.concatenate(retardance_path),
    )


SHAKE_CSV_HEADER = (
    "window", "t_start_s", "t_end_s", "shaken",
    "meter_readout_mean", "meter_dop", "meter_clipped", "polarimeter_dop",
)
SHAKE_CSV_ROW = "%d,%.12g,%.12g,%d,%.12g,%.12g,%d,%.12g\r\n"


def write_shake_outputs(
    result: ShakeResult,
    records_csv: str | Path,
    summary_json: str | Path,
    trajectory_csv: str | Path | None = None,
) -> None:
    if trajectory_csv is not None and result.axes is None:
        raise InvariantError("write_shake_outputs: the run kept no trajectory (output.trajectory_csv unset)")
    _write_csv(
        records_csv,
        SHAKE_CSV_HEADER,
        SHAKE_CSV_ROW,
        (
            (
                r.window, r.t_start_s, r.t_end_s, r.shaken,
                r.meter_readout_mean, r.meter_dop, r.meter_clipped, r.polarimeter_dop,
            )
            for r in result.records
        ),
    )
    _write_json(summary_json, result.summary)
    if trajectory_csv is not None:
        write_trajectory_csv(trajectory_csv, result.times_s, result.axes, result.retardances)


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
    if cfg.scenario != "pmd_sweep":
        raise ConfigError(f"scenario: expected pmd_sweep, got {cfg.scenario}")
    carrier, pmd, meter = cfg.carrier, cfg.pmd, cfg.meter
    _, rng_meter, _, _ = _streams(cfg.seed)

    m0 = PoincareVector.from_array(carrier.poincare)
    src0 = modulated_carrier_source(
        carrier.carrier_nm, carrier.bitrate_hz, m0, m0, m0, carrier.intensity_split
    )
    wavelengths, intensities = src0.wavelengths_nm(), src0.intensities()
    pairs = _meter_pairs(meter, wavelengths, "source.bitrate_hz", intensities, "source.intensity_split")
    axis = np.asarray(pmd.axis, dtype=float)
    axis_norm = np.linalg.norm(axis)
    if axis_norm == 0.0:
        raise ConfigError("pmd.axis: must be nonzero")
    alignment = abs(float(axis @ m0.as_array()) / (axis_norm * m0.norm()))
    degenerate = alignment > 1.0 - 1e-9

    dgd = np.linspace(pmd.dgd_start_s, pmd.dgd_stop_s, pmd.dgd_steps)
    if not np.all(np.isfinite(dgd) & (dgd >= 0.0)):
        raise InvariantError("PmdElement: dgd_s must be >= 0")
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
    _write_csv(
        records_csv,
        PMD_CSV_HEADER,
        PMD_CSV_ROW,
        ((r.dgd_s, r.source_dop, r.meter_dop, r.meter_clipped) for r in result.records),
    )
    _write_json(summary_json, result.summary)


def run_calibrate(cfg: ScenarioConfig) -> dict:
    """Measure a DOP-1 and a DOP-0 balanced reference through the configured
    meter and solve for (gain, dark_offset); returns the calibration record."""
    if cfg.scenario != "calibrate":
        raise ConfigError(f"scenario: expected calibrate, got {cfg.scenario}")
    src_cfg, meter = cfg.two_laser, cfg.meter
    _, rng_meter, _, _ = _streams(cfg.seed)
    noisy = meter.noise_sigma_rel > 0.0
    # the references are balanced whatever the configured intensities
    pairs = _meter_pairs(meter, sorted([src_cfg.lambda1_nm, src_cfg.lambda2_nm]), "source.lambda2_nm")
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
