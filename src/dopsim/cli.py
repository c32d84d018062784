"""Command-line front end.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from .harness import SCENARIOS, ConfigError, load_config_file
from .polcore import DopsimError, NumericsError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dopsim",
        description="Degree-of-polarization measurement scenarios: great-circle scan, "
        "fiber-shaking comparison, PMD sweep and meter calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for scenario, spec in SCENARIOS.items():
        sp = sub.add_parser(spec.command, help=f"run the {scenario} scenario")
        sp.add_argument("--config", required=True, help="scenario config JSON")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="directory for output files")
        sp.add_argument(
            "--noise", choices=("on", "off"), default="on", help="force all noise terms off"
        )
    vp = sub.add_parser("validate-config", help="check a config file and exit")
    vp.add_argument("config_path", help="scenario config JSON")
    return parser


def _resolve_output(key: str, configured: str | None, default_name: str | None, out_dir: str | None) -> Path | None:
    """Where one output goes; None for an optional output the config does
    not name.  A directory that does not exist, or a path that is one, is a
    config error."""
    name = configured or default_name
    if name is None:
        return None
    path = Path(name)
    if out_dir is not None:
        directory = Path(out_dir)
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot make directory {out_dir!r} ({exc.strerror or exc})")
        path = directory / path.name
    if not path.parent.is_dir():
        raise ConfigError(f"output.{key}: directory does not exist")
    if path.is_dir():
        raise ConfigError(f"output.{key}: is a directory")
    return path


def _run_scenario(args: argparse.Namespace) -> int:
    cfg = load_config_file(args.config, seed_override=args.seed, noise_off=(args.noise == "off"))
    spec = SCENARIOS[cfg.scenario]
    if spec.command != args.command:
        expected = next(name for name, s in SCENARIOS.items() if s.command == args.command)
        raise ConfigError(f"scenario: config declares {cfg.scenario!r}, command expects {expected!r}")
    # every output is resolved before the run, which writes the streamed ones
    paths = {
        key: _resolve_output(key, getattr(cfg.output, key), name, args.out) for key, name in spec.outputs.items()
    }
    streamed = {key: paths.pop(key) for key in spec.streamed}
    # runner and writer are looked up on the module at call time, so a
    # wrapper installed there (a tracer, a test spy) is the one called
    result = getattr(harness, spec.run)(cfg, **streamed)
    getattr(harness, spec.write)(result, *paths.values())
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return 2 if exc.code not in (0, None) else 0

    try:
        # a value that leaves the float range is a numerical failure, not a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "validate-config":
                cfg = load_config_file(args.config_path)
                print(f"OK: {args.config_path} ({cfg.scenario}, seed {cfg.seed})")
                return 0
            return _run_scenario(args)
    except (NumericsError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except DopsimError as exc:
        # ConfigError and any domain invariant tripped by config-derived values
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
