"""Span recorder for the traced run.

Every public function of the dopsim modules is wrapped where its callers
resolve it: ``harness.evolve``, ``channel.rotate_poincare``,
``cli.run_fig3_shake`` and so on, i.e. in each module namespace that holds
the name.  A span is labelled by the defining module and function
(``channel.evolve``), whichever namespace the call went through.  Spans are
kept in flat in-memory arrays (name, start, end, parent, invocation) and
written out once, when the run ends.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "harness", "channel", "instruments", "sources", "polcore")

WRITERS = (
    "harness.write_scan_outputs",
    "harness.write_shake_outputs",
    "harness.write_pmd_outputs",
    "harness.write_calibration_output",
)
RUNNERS = ("harness.run_fig2_scan", "harness.run_fig3_shake", "harness.run_pmd_sweep", "harness.run_calibrate")

#: Span labels reported as calls and self time.
COUNTED = (
    "channel.evolve",
    "channel.apply_fiber",
    "polcore.rotate_poincare",
    "polcore.density_from_poincare",
    "polcore.poincare_angle",
    "channel.apply_pmd",
    "sources.two_laser_source",
    "sources.source_dop",
    "sources.great_circle_pair",
    "instruments.singlet_meter_raw",
    "instruments.invert_meter_readout",
    "instruments.polarimeter_dop",
)


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._current = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # counts gathered at the same boundaries as the spans
        self.fiber_states: set = set()
        self.distinct_fiber_states = 0
        self.meter_samples = 0
        self.estimates = 0
        self.clipped = 0

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                label = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, label))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, fn, label: str):
        name_id = self._label_id(label)
        observe = {
            "channel.apply_fiber": self._observe_fiber,
            "instruments.singlet_meter_raw": self._observe_meter,
            "instruments.invert_meter_readout": self._observe_estimate,
        }.get(label)
        names, parents, invocations = self.name, self.parent, self.invocation
        starts, ends, stack, current = self.start, self.end, self._stack, self._current
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            invocations.append(current[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _observe_fiber(self, args, kwargs, result) -> None:
        fiber = args[1] if len(args) > 1 else kwargs["fiber"]
        self.fiber_states.add((fiber.axis, fiber.retardance_ref_rad, fiber.ref_wavelength_nm))

    def _observe_meter(self, args, kwargs, result) -> None:
        self.meter_samples += len(result)

    def _observe_estimate(self, args, kwargs, result) -> None:
        self.estimates += int(result.clipped.size)
        self.clipped += int(np.count_nonzero(result.clipped))

    # -- invocations ------------------------------------------------------

    def begin(self, invocation: int) -> None:
        self._current[0] = invocation
        self.fiber_states.clear()

    def end_invocation(self) -> None:
        self.distinct_fiber_states += len(self.fiber_states)
        self.fiber_states.clear()
        self._current[0] = -1

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "invocation": np.frombuffer(self.invocation, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """label -> (calls, inclusive seconds, self seconds)."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        nested = a["parent"] >= 0
        children = np.zeros_like(duration)
        np.add.at(children, a["parent"][nested], duration[nested])
        n = len(self.labels)
        calls = np.bincount(a["name"], minlength=n)
        inclusive = np.bincount(a["name"], weights=duration, minlength=n)
        own = np.bincount(a["name"], weights=duration - children, minlength=n)
        return {
            label: (int(calls[i]), float(inclusive[i]), float(own[i]))
            for i, label in enumerate(self.labels)
        }


def layer_metrics(
    tracer: Tracer, written_bytes: int, traced_s: float, untraced_s: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the traced run, as name -> (value, unit)."""
    totals = tracer.totals()

    def get(label):
        return totals.get(label, (0, 0.0, 0.0))

    out: dict[str, tuple[float, str]] = {}
    for label in COUNTED:
        calls, _, own = get(label)
        out[f"{label}.calls"] = (calls, "count")
        out[f"{label}.self_s"] = (own, "s")
    fiber_calls = get("channel.apply_fiber")[0]
    out["channel.apply_fiber.distinct_frac"] = (
        tracer.distinct_fiber_states / fiber_calls if fiber_calls else 0.0,
        "ratio",
    )
    meter_s = get("instruments.singlet_meter_raw")[1]
    out["instruments.singlet_meter_raw.samples_per_s"] = (
        tracer.meter_samples / meter_s if meter_s > 0 else 0.0,
        "1/s",
    )
    out["instruments.meter.clipped_frac"] = (
        tracer.clipped / tracer.estimates if tracer.estimates else 0.0,
        "ratio",
    )
    out["harness.write.s"] = (sum(get(w)[1] for w in WRITERS), "s")
    out["harness.write.mb"] = (written_bytes / 1e6, "MB")
    out["harness.run.self_s"] = (sum(get(r)[2] for r in RUNNERS), "s")
    out["harness.load_config_file.s"] = (get("harness.load_config_file")[1], "s")
    out["cli.cli_main.self_s"] = (get("cli.cli_main")[2], "s")
    out["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return out
