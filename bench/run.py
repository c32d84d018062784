"""dopsim benchmark: closed-loop CLI workloads with an output gate.

    python3 bench/run.py --workload {shake_default,shake_windows,sweep} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere; it works on the checkout that contains this file.  Each
workload runs in this one process as a closed loop: a single caller invokes
``dopsim.cli.cli_main`` in-process, back to back, with no threads, cycling
through the workload's generated configs until the next cycle would overrun
``--seconds``.  Every output is checked (see checks.py).

``--trace 0`` prints the end-to-end metrics.  Their times are wall times
scaled to a reference host speed, which a fixed kernel timed around every
call measures (see hostspeed.py); the raw wall times are printed beside them.  ``--trace 1`` runs a fixed
number of cycles twice, untraced and then with every public dopsim function
wrapped (see spans.py), and prints the per-layer metrics.  The last line of
standard output is always one JSON object: correct, attempted, failed,
metrics.  Scratch files, span dumps and run records go to ``.bench_out/``.
"""

import os

# Pin BLAS pools before numpy is imported, here or in any child process.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"
BASELINE = BENCH_DIR / "baseline.json"

SETUP_REPEATS = 12
SETUP_TIMEOUT_S = 60
#: Cycles of the traced run; fixed so that call counts repeat exactly.
TRACE_CYCLES = 3


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken set-up)."""


@dataclass(frozen=True)
class Sample:
    seconds: float
    units: int
    written_bytes: int
    problems: tuple[str, ...]
    #: hostspeed factor of the blocks around the call; 1.0 when not measured
    scale: float = 1.0

    @property
    def ref_seconds(self) -> float:
        """The call's time at the reference host speed."""
        return self.seconds * self.scale


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.UNITS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-digests",
        action="store_true",
        help="run one cycle at the default seed and store its CSV digests in digests.json "
        "(only at a commit whose outputs are known to be right)",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def preflight() -> None:
    for required in (ROOT / "src" / "dopsim" / "cli.py", ROOT / "configs" / "fig3_shake.json"):
        if not required.is_file():
            raise BenchError(f"{required.relative_to(ROOT)} not found: not a dopsim checkout")


def measure_setup(cycle, repeats: int, clock: hostspeed.Clock) -> list[tuple[float, float]]:
    """(wall, scaled) time from spawning a fresh interpreter to it reporting ready."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT)]
    argv += [str(inv.config) for inv in cycle]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if readable else ""
            elapsed = time.perf_counter() - t0
            if line.strip() != "ready":
                proc.kill()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {proc.returncode})")
        times.append((elapsed, elapsed * clock.scale()))
    return times


def import_dopsim():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dopsim
    import dopsim.cli

    if src.resolve() not in Path(dopsim.__file__).resolve().parents:
        raise BenchError(f"imported dopsim from {dopsim.__file__}, not from {src}")
    return dopsim


def invoke(dopsim, inv, gate) -> Sample:
    for stale in inv.out.iterdir():
        stale.unlink()
    t0 = time.perf_counter()
    try:
        code = dopsim.cli.cli_main(inv.argv())
    except Exception:  # a traceback breaks the CLI's exit-code contract: count it as failed
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - t0
    problems = gate.check(inv, code)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    written = sum(p.stat().st_size for p in inv.out.iterdir())
    return Sample(seconds, inv.units if not problems else 0, written, tuple(problems))


def closed_loop(dopsim, cycle, gate, seconds: float, clock: hostspeed.Clock):
    """One untimed warm-up cycle, then whole timed cycles back to back until
    the next one would overrun `seconds` (warm-up included).  Each call is
    scaled by the hostspeed blocks that bracket it.  Returns (warm-up
    samples, timed cycles)."""
    start = time.perf_counter()
    warmup = [invoke(dopsim, inv, gate) for inv in cycle]
    clock.scale()  # a fresh block to open the first timed call
    cycles = []
    while True:
        c0 = time.perf_counter()
        cycles.append([replace(invoke(dopsim, inv, gate), scale=clock.scale()) for inv in cycle])
        now = time.perf_counter()
        if now - start + (now - c0) > seconds:
            return warmup, cycles


def traced_run(dopsim, cycle, gate, cycles: int, trace_path: Path):
    import spans

    tracer = spans.Tracer()
    untraced, traced = [], []
    for _ in range(cycles):
        untraced.extend(invoke(dopsim, inv, gate) for inv in cycle)
        tracer.install(dopsim)
        try:
            for inv in cycle:
                tracer.begin(len(traced))
                traced.append(invoke(dopsim, inv, gate))
                tracer.end_invocation()
        finally:
            tracer.uninstall()
    tracer.write(trace_path)
    metrics = spans.layer_metrics(
        tracer,
        written_bytes=sum(s.written_bytes for s in traced),
        traced_s=sum(s.seconds for s in traced),
        untraced_s=sum(s.seconds for s in untraced),
    )
    return untraced + traced, metrics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest nearest-rank percentile
    with 10 samples beyond it; with fewer than 40 samples, n // 4 beyond, so
    the tail never falls below p75."""
    ordered = sorted(values)
    beyond = min(10, len(ordered) // 4)
    rank = len(ordered) - beyond
    return ordered[rank - 1], 100.0 * rank / len(ordered), beyond


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end_metrics(cycles: list[list[Sample]], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Metrics from the scaled times; the notes give the raw wall-time figures."""

    def figures(duration, setup_s):
        durations = [duration(s) for c in cycles for s in c]
        # Throughput per cycle, then the median: a burst of load from
        # outside the process spoils one cycle instead of the whole run's total.
        rates = [sum(s.units for s in c) / sum(duration(s) for s in c) for c in cycles]
        return {
            "setup_s": statistics.median(setup_s),
            "invoke_s.p50": statistics.median(durations),
            "invoke_s.tail": tail(durations)[0],
            "units_per_s": statistics.median(rates),
        }

    scaled = figures(lambda s: s.ref_seconds, [ref for _, ref in setup])
    wall = figures(lambda s: s.seconds, [w for w, _ in setup])
    units = {"setup_s": "s", "invoke_s.p50": "s", "invoke_s.tail": "s", "units_per_s": "unit/s"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    n = sum(len(c) for c in cycles)
    _, percentile, beyond = tail([s.seconds for c in cycles for s in c])
    notes = {name: f"wall {wall[name]:.6g}" for name in wall}
    notes["setup_s"] += f"; median of {len(setup)} fresh processes"
    notes["invoke_s.p50"] += f"; {n} invocations"
    notes["invoke_s.tail"] += f"; p{percentile:.1f}, {beyond} of {n} samples beyond"
    notes["units_per_s"] += f"; median of {len(cycles)} cycles"
    return metrics, notes


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def run_record(args, load_at_start) -> dict:
    import numpy

    baseline = None
    if BASELINE.is_file():
        baseline = json.loads(BASELINE.read_text())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "loadavg_at_start": load_at_start,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "units": workloads.UNITS[args.workload],
        "baseline": baseline,
    }


def load_golden(workload: str, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    recorded = json.loads(DIGESTS.read_text())["workloads"]
    if workload not in recorded:
        raise BenchError(f"no golden digests recorded for {workload}; see --record-digests")
    return recorded[workload]


def record_digests(dopsim, cycle, workload: str) -> None:
    gate = checks.OutputGate(golden=None)
    for inv in cycle:
        sample = invoke(dopsim, inv, gate)
        if sample.problems:
            raise BenchError(f"refusing to record digests of a failing run: {sample.problems}")
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {"workloads": {}}
    data["seed"] = workloads.DEFAULT_SEED
    data["workloads"][workload] = {
        key: {name: d for name, d in sorted(digests.items()) if name in checks.FROZEN_CSV}
        for key, digests in gate.first.items()
    }
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded digests for {workload} in {DIGESTS.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    preflight()
    if args.record_digests:
        args.seed = workloads.DEFAULT_SEED
    run_dir = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cycle = workloads.generate(args.workload, args.seed, ROOT, run_dir)

    dopsim = import_dopsim()
    if args.record_digests:
        record_digests(dopsim, cycle, args.workload)
        return 0
    gate = checks.OutputGate(load_golden(args.workload, args.seed))

    if args.trace:
        samples, metrics = traced_run(dopsim, cycle, gate, TRACE_CYCLES, run_dir / "spans.npz")
        notes = {}
    else:
        clock = hostspeed.Clock()
        # half of the set-up probes before the loop and half after it, so
        # that one burst of outside load cannot skew them all
        setup = measure_setup(cycle, SETUP_REPEATS // 2, clock)
        warmup, cycles = closed_loop(dopsim, cycle, gate, args.seconds, clock)
        setup += measure_setup(cycle, SETUP_REPEATS - len(setup), clock)
        metrics, notes = end_to_end_metrics(cycles, setup)
        notes["host_factor"] = (
            f"median {statistics.median(hostspeed.NOMINAL_S / b for b in clock.blocks):.3f} "
            f"over {len(clock.blocks)} blocks (reference speed = 1)"
        )
        samples = warmup + [s for c in cycles for s in c]
    shutil.rmtree(run_dir / "out", ignore_errors=True)

    failed = sum(1 for s in samples if s.problems)
    record = run_record(args, load_at_start)
    (run_dir / f"record-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics, "notes": notes}, indent=2) + "\n"
    )

    print(f"dopsim benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  units: {record['units']}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {value:>16.6g} {unit}{note}")
    print(f"  {'failed_frac':48s} {failed / len(samples):>16.6g} ratio  ({failed} of {len(samples)})")
    if "host_factor" in notes:
        print(f"  host speed: {notes['host_factor']}")
    print("run record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
