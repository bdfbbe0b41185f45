"""The three benchmark workloads: one pass of each, with its output checks.

Every pass records its numeric outputs in a ``Ledger``, which hashes them
(the bit-reproducibility digest), counts the items attempted and failed,
and keeps the (seconds, worst stderr / target) pairs of every Monte Carlo
sampling call for ``mc_time_to_target_s``.

Library functions are always looked up through their module
(``zeta.zeta_limit_table``), so that the tracer's wrappers are the ones
called in a traced pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import struct
import subprocess
import sys
import time

import numpy as np
from scipy.stats import norm

import rabizeta.cli as cli
import rabizeta.estimators as estimators
import rabizeta.jumplaw as jumplaw
import rabizeta.kernels as kernels
import rabizeta.observables as observables
import rabizeta.paths as paths
import rabizeta.zeta as zeta
from rabizeta.model import ModelParams

# zeta-limits: the report's tables at delta=0.5, s=2, tau=1, on a grid that runs
# past the report's g=8, plus one complex s.
ZETA_GRID = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
ZETA_TABLES = (
    ("full", 0.0, 2.0),
    ("parity+", 0.0, 2.0),
    ("parity-", 0.0, 2.0),
    ("asymmetric", 0.25, 2.0),
    ("full", 0.0, 2.0 + 1.0j),
)
# Level tables start at the report's g=4: at g=2 the upper asymmetric levels are
# not yet in the asymptotic regime (level 10 moves from 1.9e-3 at g=2 to 4.8e-3
# at g=4), and the limit statement says nothing about small g.
LEVEL_GRID = (4.0, 8.0, 12.0)
LEVEL_TABLES = (("parity", 0.0), ("asymmetric", 0.25))
N_LEVELS = 6
SPLIT_TOL = 1e-8

# fk-crosscheck: two couplings with usable and poor effective sample size.
FK_COUPLINGS = (0.5, 1.0)
FK_DELTA = 0.5
X1_DELTAS = (0.5, 1.0, 2.0)
N_MC = 100_000
# One false-alarm level for every statistical gate of the benchmark: 5 sigma,
# two-sided.  The 3-sigma and 1% gates stay in the tests and in `report`.
Z_GATE = 5.0
KS_ALPHA = float(2.0 * norm.sf(Z_GATE))
# Target standard error of every Monte Carlo estimate: 1e-3, relative for
# quantities larger than one.
REL_TARGET = 1e-3


def target_stderr(reference) -> float:
    return REL_TARGET * max(1.0, abs(complex(reference)))


class Ledger:
    """Items attempted and failed, output digest, and sampling costs of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.sampling: list[tuple[float, float]] = []
        self._hash = hashlib.sha256()
        self._group_checks = 0

    def values(self, *numbers):
        """Feed numbers into the digest bit for bit (real and imaginary parts)."""
        for x in numbers:
            z = complex(x)
            self._hash.update(struct.pack("<dd", z.real, z.imag))

    def text(self, data: str):
        self._hash.update(data.encode())

    def digest(self) -> str:
        return self._hash.hexdigest()[:16]

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        self._group_checks += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def sampled(self, seconds: float, errors):
        """One sampling call: its seconds and its (stderr, target) pairs."""
        worst = max(stderr / target for stderr, target in errors)
        self.sampling.append((seconds, worst))

    def mc_time_to_target(self) -> float:
        return sum((seconds * worst**2 for seconds, worst in self.sampling), 0.0)

    @contextlib.contextmanager
    def group(self, name: str, n_items: int):
        """Items that depend on one computation; if it raises, the rest fail."""
        self._group_checks = 0
        try:
            yield
        except Exception as exc:  # any raise is a failed item, reported by name
            missing = max(n_items - self._group_checks, 1)
            self.attempted += missing
            self.failures.extend([f"{name}: raised {type(exc).__name__}: {exc}"] * missing)


def _finite(*numbers) -> bool:
    return all(math.isfinite(complex(x).real) and math.isfinite(complex(x).imag)
               for x in numbers)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# zeta-limits
# ---------------------------------------------------------------------------


def zeta_limits_pass(ledger: Ledger, ctx) -> dict:
    start = time.perf_counter()
    for variant, eps, s in ZETA_TABLES:
        name = f"zeta-limit/{variant}/s={s}"
        with ledger.group(name, len(ZETA_GRID)):
            rows = zeta.zeta_limit_table(ModelParams(0.5, 0.0, eps), s, 1.0, ZETA_GRID, variant)
            previous = None
            for row in rows:
                ledger.values(row.g, row.value, row.deviation, row.tail_bound, row.n_used)
                ok = _finite(row.value, row.tail_bound)
                if previous is not None:
                    ok = ok and (row.deviation + row.tail_bound
                                 < previous.deviation - previous.tail_bound)
                ledger.check(f"{name}@g={row.g}", ok,
                             f"deviation {row.deviation:.3e}, tail bound {row.tail_bound:.1e}")
                previous = row

    with ledger.group("zeta-g0-split", 1):
        value = zeta.zeta_variant_value(ModelParams(0.25, 0.0), 2.0, 1.0, "full", 2000)
        split = zeta.hurwitz_zeta(2.0, 1.25).value + zeta.hurwitz_zeta(2.0, 0.75).value
        dev = abs(value.value - split)
        ledger.values(value.value, value.tail_bound, split)
        ledger.check("zeta-g0-split", _finite(value.value) and dev < SPLIT_TOL,
                     f"|zeta - split| = {dev:.2e} (tol {SPLIT_TOL:g})")

    for variant, eps in LEVEL_TABLES:
        name = f"level-limit/{variant}"
        with ledger.group(name, 2 * N_LEVELS):
            rows = zeta.eigenvalue_limit_table(ModelParams(0.5, 0.0, eps), LEVEL_GRID,
                                               N_LEVELS, variant)
            series: dict[tuple[int, int], list[float]] = {}
            for row in rows:
                ledger.values(row.g, row.n, row.parity, row.shifted, row.deviation)
                series.setdefault((row.parity, row.n), []).append(row.deviation)
            for (parity, n), devs in series.items():
                ok = _finite(*devs) and all(b < a for a, b in zip(devs, devs[1:]))
                ledger.check(f"{name}[parity={parity},n={n}]", ok,
                             "deviations " + ", ".join(f"{d:.2e}" for d in devs))
    return {"wall": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# fk-crosscheck
# ---------------------------------------------------------------------------


def _check_estimate(ledger: Ledger, name: str, est, reference):
    ledger.values(est.mean, est.stderr, reference)
    z = est.z_score(reference) if _finite(est.mean, est.stderr) else math.inf
    ledger.check(name, z < Z_GATE,
                 f"estimate {complex(est.mean):.6g} +- {est.stderr:.2e} vs oracle "
                 f"{complex(reference):.6g}: z = {z:.2f} (gate {Z_GATE:g})")


def _ensemble_checks(p, gs):
    """(label, estimator on the ensemble, exact value) for every ensemble estimator."""
    return [
        ("gibbs(-0.5)", lambda e: estimators.gibbs_number_fk(e, p, -0.5),
         lambda: observables.gibbs_number_ed(gs, -0.5)),
        ("gibbs(i pi)", lambda e: estimators.gibbs_number_fk(e, p, 1j * np.pi),
         lambda: observables.gibbs_number_ed(gs, 1j * np.pi)),
        ("number(1)", lambda e: estimators.number_moments_fk(e, p, 1),
         lambda: observables.number_moment_ed(gs, 1)),
        ("number(2)", lambda e: estimators.number_moments_fk(e, p, 2),
         lambda: observables.number_moment_ed(gs, 2)),
        ("xchar(1)", lambda e: estimators.x_characteristic_fk(e, p, 1.0),
         lambda: observables.x_characteristic_ed(gs, 1.0)),
        # The x-square oracle is known to be slightly off (ROADMAP item 1); kept as is.
        ("xsquare(0.5)", lambda e: estimators.gaussian_square_fk(e, p, 0.5),
         lambda: observables.x_square_exponential_ed(gs, 0.5)),
        ("spin-corr(0.5)", lambda e: estimators.spin_correlation_fk(e, 0.25, -0.25),
         lambda: observables.spin_autocorrelation_ed(gs, 0.5)),
        ("spin-corr(1)", lambda e: estimators.spin_correlation_fk(e, 0.5, -0.5),
         lambda: observables.spin_autocorrelation_ed(gs, 1.0)),
        ("resolvent", lambda e: estimators.resolvent_cross_moment_fk(e),
         lambda: observables.resolvent_spin_norm(gs)),
    ]


def _coupling_checks(ledger: Ledger, g: float, seed: int):
    p = ModelParams(FK_DELTA, g)
    tag = f"fk/g={g}"
    with ledger.group(f"{tag}/ground-state", 1):
        gs = observables.ground_state(p)
        ledger.values(gs.energy)
        ledger.check(f"{tag}/ground-state", _finite(gs.energy), f"energy {gs.energy}")

    sampling = [
        ("vacuum", lambda: estimators.vacuum_element_fk(p, 1.0, N_MC, seed),
         lambda: observables.vacuum_element_ed(p, 1.0)),
        ("partition", lambda: estimators.partition_fk(p, 2.0, N_MC, seed),
         lambda: observables.partition_ed(p, 2.0)),
        ("energy", lambda: estimators.ground_energy_fk(p, [4, 6, 8, 10], N_MC, seed),
         lambda: gs.energy),
    ]
    for label, run, oracle in sampling:
        with ledger.group(f"{tag}/{label}", 1):
            est, seconds = _timed(run)
            reference = oracle()
            ledger.sampled(seconds, [(est.stderr, target_stderr(reference))])
            _check_estimate(ledger, f"{tag}/{label}", est, reference)

    checks = _ensemble_checks(p, gs)
    with ledger.group(f"{tag}/ensemble", len(checks)):
        ens, seconds = _timed(lambda: paths.build_ground_ensemble(p, N_MC, seed=seed))
        ledger.values(ens.n_eff)
        errors = []
        for label, estimate, oracle in checks:
            est, spent = _timed(lambda: estimate(ens))
            seconds += spent
            reference = oracle()
            errors.append((est.stderr, target_stderr(reference)))
            _check_estimate(ledger, f"{tag}/{label}", est, reference)
        ledger.sampled(seconds, errors)


def _x1_checks(ledger: Ledger, delta: float, seed: int, critical: float):
    tag = f"x1/delta={delta}"
    with ledger.group(f"{tag}/pair-moments", 7):
        rows, seconds = _timed(lambda: jumplaw.pair_moment_table(delta, N_MC, seed))
        ledger.sampled(seconds, [(r["stderr"], target_stderr(r["closed"])) for r in rows])
        for row in rows:
            ledger.values(row["mc"], row["stderr"], row["closed"])
            ok = _finite(row["mc"], row["stderr"]) and row["z"] < Z_GATE
            ledger.check(f"{tag}/{row['moment']}", ok, f"z = {row['z']:.2f} (gate {Z_GATE:g})")
        cov = next(r for r in rows if r["moment"] == "cov(X1,X2)")
        ledger.check(f"{tag}/cov>0", cov["mc"] > 0, f"cov {cov['mc']:.3e}")

    # The law checks draw from their own seed, so they never repeat the moment
    # table's draws within a pass.
    with ledger.group(f"{tag}/law", 5):
        (x1, _), seconds = _timed(lambda: jumplaw.sample_damped_sign_pair(delta, N_MC, seed + 1))
        ks = jumplaw.damped_sign_ks(delta, x1)
        ledger.values(ks)
        ledger.check(f"{tag}/KS", _finite(ks) and ks < critical,
                     f"KS {ks:.4f} vs critical {critical:.4f} at alpha {KS_ALPHA:.1e}")
        errors = []
        for m in (1, 2, 3, 4):
            draws = x1 ** (2 * m)
            mean = float(draws.mean())
            stderr = float(draws.std(ddof=1) / np.sqrt(draws.size))
            exact = jumplaw.damped_sign_moment(delta, m)
            z = abs(mean - exact) / stderr
            ledger.values(mean, stderr)
            errors.append((stderr, target_stderr(exact)))
            ledger.check(f"{tag}/E[X1^{2 * m}]", _finite(mean, stderr) and z < Z_GATE,
                         f"z = {z:.2f} (gate {Z_GATE:g})")
        ledger.sampled(seconds, errors)


def _kernel_checks(ledger: Ledger, seed: int):
    p = ModelParams(FK_DELTA, 1.0)
    with ledger.group("kernel-reconstruction", 1):
        rec, seconds = _timed(
            lambda: kernels.gaussian_overlap_element_fk(p, 1.0, 6, n_samples=N_MC, seed=seed))
        reference = observables.vacuum_element_ed(p, 1.0)
        ledger.sampled(seconds, [(rec.stderr, target_stderr(reference))])
        _check_estimate(ledger, "kernel-reconstruction", rec, reference)

    with ledger.group("kernel-limit", 1):
        devs = []
        for g in (2.0, 6.0):
            est, seconds = _timed(lambda: kernels.heat_kernel_flip_sum(
                ModelParams(FK_DELTA, g), 1.0, 0.3, -0.2, 6, n_samples=N_MC // 5, seed=seed))
            ledger.sampled(seconds, [(est.stderr, target_stderr(0.0))])
            ledger.values(est.mean, est.stderr)
            devs.append(est.mean)
        ok = _finite(*devs) and abs(devs[1]) < abs(devs[0])
        ledger.check("kernel-limit", ok,
                     f"flip-sum |dev| {abs(devs[0]):.2e} -> {abs(devs[1]):.2e} (g = 2 -> 6)")


def fk_crosscheck_pass(ledger: Ledger, ctx) -> dict:
    start = time.perf_counter()
    for g in FK_COUPLINGS:
        _coupling_checks(ledger, g, ctx.seed)
    critical = jumplaw.ks_critical_value(N_MC, KS_ALPHA)
    for delta in X1_DELTAS:
        _x1_checks(ledger, delta, ctx.seed, critical)
    _kernel_checks(ledger, ctx.seed)
    return {"wall": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _report_rows(text: str) -> tuple[str, list[dict]]:
    """Timestamp and data rows of a CSV report record."""
    stamp = ""
    data = []
    for line in text.splitlines():
        if line.startswith("# timestamp="):
            stamp = line
        elif line and not line.startswith("# "):
            data.append(line)
    return stamp, list(csv.DictReader(data))


def _without_timestamp(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("# timestamp="))


# What the `rabizeta` executable runs, plus a report of this process's own peak
# RSS.  The rusage of a child would not do: it starts from the parent's RSS at
# fork time.
_CLI_ENTRY = """\
import sys
from rabizeta.cli import main
code = main()
sys.stderr.write([ln for ln in open("/proc/self/status") if ln.startswith("VmHWM:")][0])
sys.exit(code)
"""


def _run_cli(ctx, argv: list[str]) -> tuple[int, str, float, float]:
    """`rabizeta <argv>` in a fresh interpreter: exit code, stdout, seconds, peak RSS (MB)."""
    out_path = ctx.workdir / "cli.out"
    err_path = ctx.workdir / "cli.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        code = subprocess.run([sys.executable, "-c", _CLI_ENTRY, *argv], stdout=out,
                              stderr=err, env=ctx.child_env, cwd=ctx.workdir).returncode
        seconds = time.perf_counter() - start
    hwm = [ln.split()[1] for ln in err_path.read_text().splitlines() if ln.startswith("VmHWM:")]
    peak_mb = int(hwm[-1]) / 1024.0 if hwm else 0.0
    return code, out_path.read_text(), seconds, peak_mb


def _check_report(ledger: Ledger, tag: str, code: int, text: str):
    ledger.check(f"{tag}/exit", code == 0, f"exit code {code}")
    _, rows = _report_rows(text)
    ledger.check(f"{tag}/rows", len(rows) > 0, "no data rows in the report record")
    for row in rows:
        # `rabizeta report` exits 0 even when a check fails, so the status
        # column is what proves the battery passed.
        ledger.check(f"{tag}/{row.get('check')}", row.get("status") == "PASS",
                     f"status {row.get('status')}, measured {row.get('measured')}, "
                     f"threshold {row.get('threshold')}")


def report_pass(ledger: Ledger, ctx, in_process: bool = False) -> dict:
    """Cold `rabizeta report` on an empty cache directory, then a rerun on it.

    Cold passes run in a fresh interpreter, as users run the command; a traced
    pass calls ``cli.main`` in this process so the tracer sees every layer.
    """
    ctx.pass_index += 1
    cache = ctx.workdir / f"cache-{ctx.pass_index}"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    argv = ["report", "--cache-dir", str(cache)]
    result = {}
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        result["wall"] = time.perf_counter() - start
        text = out.getvalue()
    else:
        code, text, result["wall"], result["peak_rss_mb"] = _run_cli(ctx, argv)
    _check_report(ledger, "report/cold", code, text)
    ledger.text(_without_timestamp(text))

    files = [f for f in cache.iterdir() if f.is_file()]
    result["cache_files"] = len(files)
    result["cache_bytes"] = sum(f.stat().st_size for f in files)

    code, cached, result["cache_hit"], _ = _run_cli(ctx, argv)
    ledger.check("report/cached/exit", code == 0, f"exit code {code}")
    # A record served from the cache keeps the cold run's timestamp.
    ledger.check("report/cached/hit", _report_rows(cached)[0] == _report_rows(text)[0],
                 "cached rerun did not return the cold run's record")
    ledger.check("report/cached/same-bits", _without_timestamp(cached) == _without_timestamp(text),
                 "cached rerun printed different numbers")
    shutil.rmtree(cache, ignore_errors=True)
    return result


PASSES = {
    "zeta-limits": zeta_limits_pass,
    "fk-crosscheck": fk_crosscheck_pass,
    "report": report_pass,
}

