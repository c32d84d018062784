"""Golden outputs: every CLI output of the shipped configs, byte for byte.

Each case runs one shipped ``configs/*.json`` through ``cli_main`` at a
fixed seed and compares every file it writes with ``tests/golden/``.  Files
over 1 MB are pinned by their sha256 in ``tests/golden/sha256.json`` instead
of being stored.  The comparison is exact; a change that moves any rendered
digit must not pass.

To record the goldens (only at a commit whose outputs are known right):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from dopsim.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "sha256.json"
STORE_LIMIT_BYTES = 1_000_000

COMMANDS = {"fig2_scan": "scan", "fig3_shake": "shake", "pmd_sweep": "pmd", "calibrate": "calibrate"}
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
EXTRA_SEED = 1


def _cases() -> list[tuple[str, int]]:
    cases = []
    for stem in CONFIGS:
        seed = json.loads((ROOT / "configs" / f"{stem}.json").read_text())["seed"]
        cases += [(stem, seed), (stem, EXTRA_SEED)]
    return cases


def _run(stem: str, seed: int, out: Path) -> dict[str, bytes]:
    config = ROOT / "configs" / f"{stem}.json"
    command = COMMANDS[json.loads(config.read_text())["scenario"]]
    argv = [command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    assert cli_main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _case_dir(stem: str, seed: int) -> Path:
    return GOLDEN / stem / f"seed{seed}"


@pytest.mark.parametrize("stem,seed", _cases())
def test_cli_outputs_match_golden(stem, seed, tmp_path):
    produced = _run(stem, seed, tmp_path)
    digests = json.loads(DIGESTS.read_text())
    case = _case_dir(stem, seed)
    key = f"{stem}/seed{seed}/"
    expected = {p.name for p in case.iterdir()} | {
        k[len(key):] for k in digests if k.startswith(key)
    }
    assert set(produced) == expected
    for name, data in produced.items():
        if key + name in digests:
            assert hashlib.sha256(data).hexdigest() == digests[key + name], name
        else:
            assert data == (case / name).read_bytes(), name


def record() -> None:
    digests = {}
    for stem, seed in _cases():
        case = _case_dir(stem, seed)
        shutil.rmtree(case, ignore_errors=True)
        case.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in _run(stem, seed, Path(tmp)).items():
                if len(data) > STORE_LIMIT_BYTES:
                    digests[f"{stem}/seed{seed}/{name}"] = hashlib.sha256(data).hexdigest()
                else:
                    (case / name).write_bytes(data)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(record())
