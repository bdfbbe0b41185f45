"""Smoke test of the benchmark's tracer: one traced ``fk-crosscheck`` pass.

The tracer reads fields off the ensemble (``left_jumps``, ``right_jumps``,
``n_eff``, ``n_samples``) and off the estimates; a change to either that
breaks a traced benchmark run fails here.
"""

import sys
import types
from pathlib import Path

import pytest

import rabizeta.paths as paths

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench(request):
    sys.path.insert(0, str(PERFBENCH))
    request.addfinalizer(lambda: sys.path.remove(str(PERFBENCH)))
    import tracer
    import workloads

    return tracer, workloads


def test_traced_fk_crosscheck_pass(bench):
    tracer, workloads = bench
    ledger = workloads.Ledger()
    trace = tracer.Tracer()
    trace.install()
    try:
        ctx = types.SimpleNamespace(seed=paths.DEFAULT_SEED)
        timing = workloads.fk_crosscheck_pass(ledger, ctx)
    finally:
        trace.restore()
    metrics = tracer.layer_metrics(trace, timing["wall"])
    assert ledger.failures == []
    assert ledger.attempted > 0
    # both couplings' ensembles at the default seed, on the clock _clock_rate gives
    assert metrics["paths.build_ground_ensemble.jumps"] == 1_803_143
    assert metrics["paths.build_ground_ensemble.n_eff_frac"] > 0.0
