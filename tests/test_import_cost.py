"""Import cost: what ``import rabizeta`` loads."""

import os
import subprocess
import sys
from pathlib import Path

import rabizeta


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone took about 0.8 s of a 1.4 s package import
    env = dict(os.environ, PYTHONPATH=str(Path(rabizeta.__file__).resolve().parents[1]))
    code = "import sys, rabizeta; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
