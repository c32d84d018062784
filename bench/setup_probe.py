"""Child process timed by run.py for ``setup_s``.

Usage: python3 bench/setup_probe.py ROOT CONFIG...

Imports dopsim (with its CLI, which pulls in every module) from ROOT/src,
loads each config through ``harness.load_config_file`` and prints ``ready``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))

import dopsim.cli  # noqa: E402
from dopsim import harness  # noqa: E402

for path in sys.argv[2:]:
    harness.load_config_file(path)
print("ready", flush=True)
