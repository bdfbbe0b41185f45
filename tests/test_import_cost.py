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


def test_kernel_checks_do_not_load_scipy_integrate():
    # scipy.integrate pulled in scipy.optimize, scipy.spatial and scipy.fft:
    # about 0.2 s of every cold ``rabizeta report``
    env = dict(os.environ, PYTHONPATH=str(Path(rabizeta.__file__).resolve().parents[1]))
    code = ("import sys\n"
            "from rabizeta.cli import AcceptanceBattery\n"
            "from rabizeta.paths import DEFAULT_SEED\n"
            "AcceptanceBattery.N_MC = 20_000\n"
            "rows = AcceptanceBattery(DEFAULT_SEED).run('kernels')\n"
            "assert all(row[-1] == 'PASS' for row in rows), rows\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
