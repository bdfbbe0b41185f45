"""Command-line interface: every computation as a reproducible subcommand.

    rabizeta spectrum --delta 0.5 --g 0 --levels 6
    rabizeta zeta --s 2 --tau 1 --delta 0 --g 3
    rabizeta limits zeta --variant parity+ --g-grid 2,4,6,8
    rabizeta fk vacuum --t 1 --delta 0.5 --g 1 --n 100000
    rabizeta x1 --delta 1 --n 100000
    rabizeta report --cache-dir ./cache

Each option is declared once, with its type and default, on the parser of
the command that reads it (each ``fk`` quantity and each ``limits`` table is
a command of its own), so an option a command does not read is a usage
error; only ``--format`` and ``--output`` belong to every command, and
they too follow its name.  The seed defaults to a fixed constant so
identical invocations produce byte-identical data rows.  Output is CSV
(default) or JSON; a record's meta holds the command's options and its
digest covers them and the package sources; its quantity is the command's
name (``limits/zeta``, ``fk/vacuum``) and its anchor string names the
mathematical claim it exercises.  Only ``report`` keeps a cache, in its
``--cache-dir``, keyed by that digest.

Exit codes: 0 success (possibly with warnings), 2 usage or constraint
violation, 3 numerical nonconvergence, 4 a ``report`` check failed (the
record is still written).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import (
    ConvergenceError,
    DomainError,
    NumericalError,
    ParameterError,
    UnsupportedConfigError,
)
from .estimators import (
    _check_edge_guard,
    _check_moment_order,
    _z_score,
    gaussian_square_fk,
    gibbs_number_fk,
    ground_energy_fk,
    number_moments_fk,
    partition_fk,
    spin_correlation_fk,
    vacuum_element_fk,
    x_characteristic_fk,
)
from .jumplaw import (
    _pair_moment_rows,
    damped_sign_ks,
    damped_sign_moment,
    ks_critical_value,
    sample_damped_sign_pair,
)
from .kernels import (
    gaussian_overlap_element_fk,
    heat_kernel_component,
    heat_kernel_flip_sum,
    mehler_kernel,
)
from .model import ModelParams, adaptive_spectrum
from .observables import (
    _AUTO_REL_TOL,
    gibbs_number_ed,
    ground_state,
    number_moment_ed,
    number_parity_expectation,
    partition_ed,
    pull_through_residual,
    spin_autocorrelation_ed,
    vacuum_element_ed,
    x_characteristic_ed,
    x_square_exponential_ed,
)
from .paths import DEFAULT_SEED, _check_draws, _horizon, build_ground_ensemble
from .zeta import (
    _ladder,
    _require_zeta_shift,
    eigenvalue_limit_table,
    hurwitz_zeta,
    variant_target,
    zeta_limit_table,
    zeta_variant_value,
)


# ---------------------------------------------------------------------------
# Records and serialization
# ---------------------------------------------------------------------------


@dataclass
class ResultRecord:
    """One emitted table: config digest, claim anchor, columns, data rows."""

    config_hash: str
    quantity: str
    anchor: str
    columns: list
    rows: list
    meta: dict = field(default_factory=dict)
    timestamp: str = ""
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        return cls(**json.loads(text))

    def to_csv(self) -> str:
        buffer = io.StringIO()
        for key in ("config_hash", "quantity", "anchor", "version", "timestamp"):
            buffer.write(f"# {key}={getattr(self, key)}\n")
        buffer.write(f"# meta={json.dumps(self.meta, sort_keys=True)}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_csv_cell(v) for v in row])
        return buffer.getvalue()


def _csv_cell(v) -> str:
    # numpy floats subclass float, and their repr names the type
    return repr(float(v)) if isinstance(v, float) else str(v)


def _source_fingerprint() -> str:
    """sha256 of the package's Python sources: the code a record came from."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def config_hash(subcommand: str, options: dict) -> str:
    """Stable digest of the canonicalized configuration plus the source fingerprint."""
    payload = json.dumps(
        {"subcommand": subcommand, "options": options, "source": _source_fingerprint()},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _options(args) -> dict:
    """The parsed values of the options the command declares, JSON-ready."""
    options = {dest: getattr(args, dest) for dest in args.command.options}
    return {k: repr(v) if isinstance(v, complex) else v for k, v in options.items()}


def _record(args, anchor: str, columns: list, rows: list, **result_meta) -> ResultRecord:
    """A command's record: its options are its digest and meta, its name the quantity."""
    options = _options(args)
    return ResultRecord(
        config_hash=config_hash(args.command.name, options),
        quantity=args.command.name,
        anchor=anchor,
        columns=columns,
        rows=rows,
        meta={**options, **result_meta},
        timestamp=_now(),
    )


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _emit(record: ResultRecord, fmt: str, output: str | None):
    text = record.to_json() if fmt == "json" else record.to_csv()
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _default_variant(args) -> str:
    """``--variant``, by default ``asymmetric`` at eps > 0 and ``full`` otherwise."""
    if args.variant is None:
        args.variant = "asymmetric" if args.eps > 0 else "full"
    return args.variant


def cmd_spectrum(args) -> ResultRecord:
    params = ModelParams(args.delta, args.g, args.eps)
    spec = adaptive_spectrum(params, k=args.levels, rel_tol=args.rel_tol, variant=args.variant)
    rows = []
    for n in range(min(args.levels, len(spec))):
        tag = int(spec.parity[n]) if spec.parity is not None else 0
        energy = float(spec.eigenvalues[n])
        rows.append([n, tag, energy, energy + params.g**2])
    return _record(args, "eigenvalues ascending; E_0 + g^2 >= -delta - eps",
                   ["n", "parity", "energy", "shifted_energy"], rows,
                   n_max=spec.truncation.n_max, converged_count=spec.converged_count,
                   refinement=[list(step) for step in spec.refinement],
                   max_bracket=float(spec.error_bound[:args.levels].max()))


def cmd_zeta(args) -> ResultRecord:
    params = ModelParams(args.delta, args.g, args.eps)
    _require_zeta_shift(params, args.tau)
    variant = _default_variant(args)
    zv = zeta_variant_value(params, args.s, args.tau, variant, args.n_head)
    target = variant_target(params, args.s, args.tau, variant)
    rows = [[
        variant, float(zv.value.real), float(zv.value.imag),
        float(target.real), float(target.imag),
        abs(zv.value - target), zv.tail_bound, zv.n_used,
    ]]
    return _record(args, "spectral zeta zeta_g(s; g^2 + tau) with bracketed Hurwitz tail",
                   ["variant", "value_re", "value_im", "limit_re", "limit_im",
                    "deviation_from_limit", "tail_bound", "n_used"], rows)


_ZETA_LIMIT_ANCHORS = {
    "full": "limit |g|->inf: zeta_g(s; g^2+tau) -> 2 zeta(s; tau)",
    "parity+": "limit |g|->inf: sector zeta -> zeta(s; tau)",
    "parity-": "limit |g|->inf: sector zeta -> zeta(s; tau)",
    "asymmetric": "limit |g|->inf: zeta_eps -> zeta(s;tau+eps) + zeta(s;tau-eps)",
}


def _limit_params(args) -> tuple[ModelParams, str]:
    """A ``limits`` table's parameters at g = 0 and its variant, checked as given."""
    variant = _default_variant(args)
    params = ModelParams(args.delta, 0.0, args.eps)
    _ladder(params, variant)  # the variant and its eps rule
    return params, variant


def _limits_zeta(args) -> ResultRecord:
    params, variant = _limit_params(args)
    rows = [
        [r.g, float(r.value.real), float(r.value.imag), float(r.target.real),
         r.deviation, r.tail_bound, r.n_used]
        for r in zeta_limit_table(params, args.s, args.tau, args.g_grid, variant, args.n_head)
    ]
    return _record(args, _ZETA_LIMIT_ANCHORS[variant],
                   ["g", "value_re", "value_im", "target_re", "deviation",
                    "tail_bound", "n_used"], rows)


def _limits_levels(args) -> ResultRecord:
    params, variant = _limit_params(args)
    # the library names the two-sector table after its parity tags
    table = eigenvalue_limit_table(params, args.g_grid, args.levels,
                                   "parity" if variant == "full" else variant)
    rows = [[r.g, r.n, r.parity, r.shifted, r.target, r.deviation] for r in table]
    return _record(args, "limit |g|->inf: E_n(g) + g^2 -> integer (split by eps when tilted)",
                   ["g", "n", "parity", "shifted_energy", "target", "deviation"], rows)


# Each ``fk`` quantity is its own command.  Each quantity on the ground-path
# ensemble is one row of ``_OBSERVABLES`` (estimator, oracle, anchor, option
# and argument check), read by its command and by the battery's ``fk`` rows,
# so adding one is an estimator, an oracle and a row.  Its command checks
# the horizon ``--T`` and then its argument, evaluates the exact value, whose
# domain checks reject bad options, and only then samples the ensemble.

_EST_COLUMNS = ["quantity", "value_re", "value_im", "stderr",
                "oracle_re", "oracle_im", "z", "n_eff", "note"]


def _estimate(args, name: str, est, oracle, anchor: str, **result_meta) -> ResultRecord:
    """An ``fk`` record: one Monte Carlo estimate beside its exact value."""
    oracle = complex(oracle)
    row = [name, float(np.real(est.mean)), float(np.imag(est.mean)),
           est.stderr, oracle.real, oracle.imag, est.z_score(oracle),
           -1.0 if est.n_eff is None else float(est.n_eff), est.note or "ok"]
    return _record(args, anchor, _EST_COLUMNS, [row], **result_meta)


def _fk_params(args, least: int = 1) -> ModelParams:
    """The model of a ``fk`` leaf, after refusing ``--n`` below ``least`` or a negative
    ``--seed``; a leaf whose estimator draws its own samples asks ``least=2``."""
    _check_draws(args.seed, args.n, least)
    return ModelParams(args.delta, args.g)


def _ensemble(args):
    return build_ground_ensemble(_fk_params(args), args.n, args.T, args.seed)


def _real(text: str) -> float:
    """A complex-typed option value (``--beta``) for a quantity that needs it real."""
    z = complex(text)
    if z.imag:
        raise argparse.ArgumentTypeError(f"beta must be real for this quantity, got {text}")
    return z.real


def _check_xchar_beta(T: float, beta: float):
    """Refuse a ``fk xchar`` beta whose estimate the oracle cannot resolve.

    The estimate e^(-beta^2/4) <cos(beta K)> has a standard error below
    e^(-beta^2/4), and the oracle is certified only to ``_AUTO_REL_TOL``
    (of a value at most 1), so past |beta| = 2 sqrt(ln(1/_AUTO_REL_TOL)),
    where e^(-beta^2/4) falls below that tolerance, z would measure the
    oracle's rounding, not the sampling error.
    """
    limit = 2.0 * np.sqrt(np.log(1.0 / _AUTO_REL_TOL))
    if not abs(beta) <= limit:
        raise DomainError(f"|beta| must be <= {limit:.4g}, where the oracle's tolerance "
                          f"still resolves <exp(i beta x)>, got {beta}")


class _Observable(NamedTuple):
    """A quantity on the ground-path ensemble, read at one argument.

    ``estimate(ens, p, arg)`` forms its estimate on the ensemble ``ens`` of
    the parameters ``p``, ``exact(gs, arg)`` its value in the ground state
    ``gs``, and ``check(T, arg)`` refuses an argument the horizon half-width
    ``T`` cannot take.  The first two reach the layer functions through this
    module's globals when they run, so wrappers installed on those names see
    every call.
    """

    leaf: str
    quantity: str  # the record's quantity column, formatted with the argument
    anchor: str
    help: str
    option: tuple  # (flag, add_argument keywords) of the argument
    estimate: object
    exact: object
    check: object = lambda T, arg: None


_OBSERVABLES = (
    _Observable("gibbs", "gibbs_number", "<exp(beta n)> = <exp(-g^2 (1 - e^beta) Jc)>_paths",
                "<exp(beta n)>", ("--beta", {"type": complex, "default": "-0.5"}),
                lambda ens, p, beta: gibbs_number_fk(ens, p, beta),
                lambda gs, beta: gibbs_number_ed(gs, beta)),
    _Observable("number", "number_moment_{}", "<n^m> = sum_l S(m,l) g^(2l) <Jc^l>_paths",
                "<n^m>", ("--m", {"type": int, "default": 1}),
                lambda ens, p, m: number_moments_fk(ens, p, m),
                lambda gs, m: number_moment_ed(gs, m),
                lambda T, m: _check_moment_order(m)),
    _Observable("xchar", "x_characteristic",
                "<exp(i beta x)> = e^(-beta^2/4) <cos(beta K)>_paths",
                "<exp(i beta x)>", ("--beta", {"type": _real, "default": 1.0}),
                lambda ens, p, beta: x_characteristic_fk(ens, p, beta),
                lambda gs, beta: x_characteristic_ed(gs, beta), _check_xchar_beta),
    _Observable("xsquare", "x_square_exponential",
                "<exp(beta x^2)> = (1-beta)^(-1/2) <exp(beta K^2/(1-beta))>_paths",
                "<exp(beta x^2)>", ("--beta", {"type": _real, "default": 0.5}),
                lambda ens, p, beta: gaussian_square_fk(ens, p, beta),
                lambda gs, beta: x_square_exponential_ed(gs, beta)),
    _Observable("spin-corr", "spin_correlation_{}",
                "<sz exp(-|t-s|(M-E)) sz> = <T_t T_s>_paths",
                "spin autocorrelation", ("--lag", {"type": float, "default": 1.0}),
                lambda ens, p, lag: spin_correlation_fk(ens, lag / 2.0, -lag / 2.0),
                lambda gs, lag: spin_autocorrelation_ed(gs, lag),
                lambda T, lag: _check_edge_guard(T, lag / 2.0, -lag / 2.0)),
)
_OBSERVABLE_BY_LEAF = {row.leaf: row for row in _OBSERVABLES}


def _fk_observable(row: _Observable, args) -> ResultRecord:
    """The ``fk`` record of one ``_OBSERVABLES`` row; its meta names the clock rate drawn at."""
    p = _fk_params(args)
    arg = getattr(args, args.command.options[-1])  # the row's option is declared last
    row.check(_horizon(p.delta, args.T), arg)
    oracle = row.exact(ground_state(p), arg)
    ens = _ensemble(args)
    return _estimate(args, row.quantity.format(arg), row.estimate(ens, p, arg), oracle,
                     row.anchor, clock_rate=ens.rate)


def _fk_vacuum(args) -> ResultRecord:
    p = _fk_params(args, least=2)
    return _estimate(args, "vacuum_element", vacuum_element_fk(p, args.t, args.n, args.seed),
                     vacuum_element_ed(p, args.t),
                     "vacuum semigroup element: 2 e^(delta t) E[exp(-2 g^2 xi)]")


def _fk_partition(args) -> ResultRecord:
    p = _fk_params(args, least=2)
    return _estimate(args, "partition", partition_fk(p, args.t, args.n, args.seed),
                     partition_ed(p, args.t),
                     "flat-state element: 2 e^(delta t) E[exp((g^2/2) J)]")


def _fk_energy(args) -> ResultRecord:
    p = _fk_params(args, least=2)
    est = ground_energy_fk(p, args.t_grid, args.n, args.seed)
    return _estimate(args, "ground_energy", est, ground_state(p).energy,
                     "ground energy from the semigroup decay rate",
                     series=est.extras["series"])


def _fk_kernel(args) -> ResultRecord:
    est = heat_kernel_component(_fk_params(args, least=2), args.t, args.m, args.x, args.y,
                                args.n, args.seed)
    base = float(mehler_kernel(args.t, args.x, args.y))
    rows = [[f"heat_kernel_m{args.m}", float(np.real(est.mean)), float(np.imag(est.mean)),
             est.stderr, base, 0.0, -1.0, -1.0, "oracle column = Mehler kernel"]]
    return _record(args, "m-flip kernel component (delta t)^m/m! E[CF_bridge] M_t",
                   _EST_COLUMNS, rows)


def _fk_dump(args) -> ResultRecord:
    ens = _ensemble(args)
    T = ens.half_width
    with open(args.out, "w") as fh:
        for i, (alpha0, log_weight) in enumerate(zip(ens.alpha0.tolist(),
                                                     ens.log_weights.tolist())):
            fh.write(json.dumps({
                "alpha0": alpha0,
                "horizon": [-T, T],
                "jumps": ens.jump_times(i).tolist(),
                "log_weight": log_weight,
            }) + "\n")
    return _record(args, "ensemble dump: one record per weighted path",
                   ["T", "rate", "n_paths", "n_eff", "path"],
                   [[T, ens.rate, ens.n_samples, ens.n_eff, args.out]])


def cmd_x1(args) -> ResultRecord:
    x1, x2 = sample_damped_sign_pair(args.delta, args.n, args.seed)
    rows = []
    for row in _pair_moment_rows(args.delta, x1, x2):
        rows.append([row["moment"], row["closed"], row["mc"], row["stderr"], row["z"]])
    ks = damped_sign_ks(args.delta, x1)
    crit = ks_critical_value(args.n)
    rows.append(["KS_statistic", crit, ks, 0.0, ks / crit])
    return _record(args, "damped sign integrals: Beta-family law and closed moments",
                   ["moment", "closed_or_critical", "mc", "stderr", "z_or_ratio"], rows)


# ---------------------------------------------------------------------------
# Report: the acceptance battery with pass/fail marks
# ---------------------------------------------------------------------------


def _check(name: str, anchor: str, measured, threshold, ok: bool | None = None) -> list:
    """One report row; unless ``ok`` says otherwise it passes when measured < threshold."""
    ok = measured < threshold if ok is None else ok
    return [name, anchor, float(measured), float(threshold), "PASS" if ok else "FAIL"]


class AcceptanceBattery:
    """The acceptance checks, defined once, as ordered groups of report rows.

    ``run(group)`` returns rows ``[check, anchor, measured, threshold,
    status]``; ``rabizeta report`` renders every group and the test suite
    runs each group under a runtime budget.  The Monte Carlo groups share one
    ground state (delta = 0.5, g = 1) and each value that two groups check,
    built on first use whatever order the groups run in.  The path ensemble
    is the largest Monte Carlo working set: it lives only while
    ``ensemble_estimates`` forms the estimates read from it, so no later
    group's working set stacks on it.  Each of those estimates is a point
    ``(row name, leaf, argument)`` of ``ENSEMBLE_POINTS``, read through the
    ``_OBSERVABLES`` row of its leaf, which also gives the ``fk`` group its
    exact value: an ``fk/<row name>`` row reads the same estimator and
    oracle as ``rabizeta fk <leaf>`` at that argument.  Group bodies reach
    the layer functions through this module's globals when they run, so
    wrappers installed on those names see every call.
    """

    GROUPS = ("free-spectrum", "delta0-shift", "zeta-g0", "zeta-limit", "level-limit",
              "fk", "x1", "pull-through", "parity", "kernels")
    # (variant, epsilon) rows of the zeta-limit group, in report order
    ZETA_LIMIT_CASES = (("full", 0.0), ("parity+", 0.0), ("parity-", 0.0), ("asymmetric", 0.25))
    # Monte Carlo samples of every sampled check
    N_MC = 100_000
    # (row name, leaf, argument) of each estimate on the path ensemble, in report order
    ENSEMBLE_POINTS = (("gibbs(-0.5)", "gibbs", -0.5), ("gibbs(i pi)", "gibbs", 1j * np.pi),
                       ("number(1)", "number", 1), ("number(2)", "number", 2),
                       ("xchar(1)", "xchar", 1.0), ("xsquare(0.5)", "xsquare", 0.5),
                       ("spin-corr(0.5)", "spin-corr", 0.5), ("spin-corr(1)", "spin-corr", 1.0))

    def __init__(self, seed: int):
        self.seed = seed
        self.params = ModelParams(0.5, 1.0)

    @cached_property
    def gs(self):
        return ground_state(self.params)

    @cached_property
    def vacuum(self):
        """The exact vacuum element at t = 1, which ``fk`` and ``kernels`` both check."""
        return vacuum_element_ed(self.params, 1.0)

    @cached_property
    def ensemble_estimates(self) -> dict:
        """Every estimate the battery forms on the path ensemble, by row name.

        ``fk`` checks them all and ``parity`` reads ``gibbs(i pi)``.  The
        ensemble is a local, garbage once they are formed.
        """
        p = self.params
        ens = build_ground_ensemble(p, self.N_MC, seed=self.seed)
        return {name: _OBSERVABLE_BY_LEAF[leaf].estimate(ens, p, arg)
                for name, leaf, arg in self.ENSEMBLE_POINTS}

    def run(self, group: str) -> list[list]:
        return getattr(self, "_" + group.replace("-", "_"))()

    def _free_spectrum(self):
        spec = adaptive_spectrum(ModelParams(0.5, 0.0), k=12, rel_tol=1e-10)
        target = np.sort(np.concatenate([np.arange(6) - 0.5, np.arange(6) + 0.5]))
        dev = float(np.abs(spec.eigenvalues[:12] - target).max())
        return [_check("free-spectrum", "g=0 levels are n -/+ delta", dev, 1e-10)]

    def _delta0_shift(self):
        worst = 0.0
        for g in (1.0, 2.0, 4.0):
            spec = adaptive_spectrum(ModelParams(0.0, g), k=42, rel_tol=1e-9)
            shifted = spec.eigenvalues[:42] + g**2
            worst = max(worst, float(np.abs(shifted - np.repeat(np.arange(21), 2)).max()))
        return [_check("delta0-shift", "delta=0: E_n + g^2 = floor(n/2) exactly", worst, 1e-8)]

    def _zeta_g0(self):
        zv = zeta_variant_value(ModelParams(0.25, 0.0), 2.0, 1.0, "full", 2000)
        target = hurwitz_zeta(2.0, 1.25).value + hurwitz_zeta(2.0, 0.75).value
        dev = abs(zv.value - target)
        return [_check("zeta-g0", "g->0: zeta splits as zeta(s;tau+delta)+zeta(s;tau-delta)",
                       dev, 1e-8)]

    def _zeta_limit(self):
        return [self.zeta_limit_row(variant, eps) for variant, eps in self.ZETA_LIMIT_CASES]

    def zeta_limit_row(self, variant: str, eps: float) -> list:
        """One row of the ``zeta-limit`` group: ``variant`` at asymmetry ``eps``."""
        table = zeta_limit_table(ModelParams(0.5, 0.0, eps), 2.0, 1.0, [2, 4, 6, 8], variant)
        # certified: each deviation falls by more than both tail brackets
        ok = all(b.deviation + b.tail_bound < a.deviation - a.tail_bound
                 for a, b in zip(table, table[1:]))
        return _check(f"zeta-limit/{variant}",
                      "deviation from the coupling limit strictly decreases",
                      table[-1].deviation, table[-2].deviation, ok)

    def _level_limit(self):
        table = eigenvalue_limit_table(ModelParams(0.5, 0.0), [4.0, 8.0], 6)
        dev = {(r.g, r.parity, r.n): r.deviation for r in table}
        levels = [(par, n) for par in (1, -1) for n in range(6)]
        ok = all(dev[(8.0, *lv)] < dev[(4.0, *lv)] for lv in levels)
        return [_check("level-limit", "per (parity, n<=5): |E+g^2-n| smaller at g=8 than g=4",
                       max(dev[(8.0, *lv)] for lv in levels),
                       min(dev[(4.0, *lv)] for lv in levels), ok)]

    def _fk(self):
        p, gs, n, seed = self.params, self.gs, self.N_MC, self.seed
        # the estimators that draw their own paths run before the ensemble is built
        pairs = [
            ("vacuum", vacuum_element_fk(p, 1.0, n, seed), self.vacuum),
            ("partition", partition_fk(p, 2.0, n, seed), partition_ed(p, 2.0)),
            ("energy", ground_energy_fk(p, [4, 6, 8, 10], n, seed), gs.energy),
        ]
        oracles = {name: _OBSERVABLE_BY_LEAF[leaf].exact(gs, arg)
                   for name, leaf, arg in self.ENSEMBLE_POINTS}
        pairs += [(name, est, oracles[name]) for name, est in self.ensemble_estimates.items()]
        return [_check(f"fk/{name}", "jump-path estimator within 3 sigma of the exact value",
                       est.z_score(oracle), 3.0) for name, est, oracle in pairs]

    def _x1(self):
        rows = []
        for delta in (0.5, 1.0, 2.0):
            x1, x2 = sample_damped_sign_pair(delta, self.N_MC, self.seed)
            pair = _pair_moment_rows(delta, x1, x2)
            x1 = x1.copy()  # x1 and x2 are the rows of one array: it goes with x2
            del x2
            zs = [row["z"] for row in pair]  # E[X1^2], the m = 1 moment, among them
            # x^4 = (x^2)^2, x^6 = x^4 x^2 and x^8 = (x^4)^2 by multiplication, not pow
            square = x1 * x1
            quartic = square * square
            for m, power in ((2, lambda: quartic),
                             (3, lambda: np.multiply(quartic, square, out=square)),
                             (4, lambda: np.multiply(quartic, quartic, out=quartic))):
                draws = power()
                stderr = draws.std(ddof=1) / np.sqrt(draws.size)
                zs.append(_z_score(draws.mean(), stderr, damped_sign_moment(delta, m)))
            del square, quartic, draws  # before the KS
            rows.append(_check(f"x1-moments(delta={delta})",
                               "closed pair moments and E[X1^2m] for m<=4 within 3 sigma",
                               max(zs), 3.0))
            cov = next(row["mc"] for row in pair if row["moment"] == "cov(X1,X2)")
            rows.append(_check(f"x1-cov(delta={delta})", "sampled cov(X1,X2) is positive",
                               cov, 0.0, cov > 0))
            ks = damped_sign_ks(delta, x1)
            del x1  # before the next delta draws
            crit = ks_critical_value(self.N_MC)
            rows.append(_check(f"x1-law(delta={delta})",
                               "KS statistic below the 1% critical value", ks, crit))
        return rows

    def _pull_through(self):
        resid = pull_through_residual(self.gs)
        return [_check("pull-through", "|b psi|^2 = g^2 |(M-E+1)^{-1} sz psi|^2", resid, 1e-6)]

    def parity_row(self, params: ModelParams) -> list:
        """The ``parity`` row at ``params``: the certified gap from the odd ground level up.

        It passes when the lowest level is odd, the next one even, and the
        lower end of the even one's bracket lies above the upper end of the odd one's.

        The row stops near g = 3.  At delta = 0.5 the certified gap reads
        1.57e-8 at g = 3 and -1.37e-12 at g = 4, where the true split, about
        2 delta exp(-2 g^2), is below what brackets in doubles resolve.  A
        larger g needs an analytic argument, such as Hirokawa and Hiroshima's
        theorem that the ground level never crosses another level, not a
        tighter bracket.
        """
        spec = adaptive_spectrum(params, k=2, rel_tol=1e-10)
        w, widths = spec.eigenvalues, spec.error_bound
        gap = (w[1] - widths[1]) - (w[0] + spec.backward_error)
        return _check("parity", "ground state is odd under the conserved Z2 charge", gap, 0.0,
                      gap > 0 and list(spec.parity[:2]) == [-1, 1])

    def _parity(self):
        npar_ed = number_parity_expectation(self.gs)
        npar_fk = self.ensemble_estimates["gibbs(i pi)"]
        return [
            self.parity_row(self.params),
            _check("number-parity", "<(-1)^n> positive in both routes", npar_ed, 0.0,
                   npar_ed > 0 and npar_fk.real > 0),
        ]

    def _kernels(self):
        # the trapezoid rule on a uniform grid: the integrand is analytic and
        # Gaussian-decaying, so the rule converges geometrically
        grid, step = np.linspace(-12.0, 12.0, 4801, retstep=True)
        comp = 0.0
        for t, s, x, y in ((0.5, 0.5, 0.3, -0.2), (0.3, 0.9, -0.7, 0.4)):
            f = mehler_kernel(t, x, grid) * mehler_kernel(s, grid, y)
            val = step * (f.sum() - 0.5 * (f[0] + f[-1]))
            comp = max(comp, abs(float(val) - float(mehler_kernel(t + s, x, y))))
        rec = gaussian_overlap_element_fk(self.params, 1.0, 6, n_samples=self.N_MC,
                                          seed=self.seed)
        z = rec.z_score(self.vacuum)
        devs = [abs(heat_kernel_flip_sum(ModelParams(0.5, g), 1.0, 0.3, -0.2, 6,
                                         n_samples=max(self.N_MC // 5, 4000),
                                         seed=self.seed).mean)
                for g in (2.0, 6.0)]
        return [
            _check("mehler-semigroup", "kernel composition M_t * M_s = M_{t+s}", comp, 1e-6),
            _check("kernel-reconstruction", "flip expansion reproduces the exact Gaussian element",
                   z, 3.0),
            _check("kernel-limit", "flip-sum deviation from Mehler shrinks from g=2 to g=6",
                   devs[1], devs[0]),
        ]


def acceptance_rows(seed: int) -> list[list]:
    """Every row of every acceptance group, in battery order."""
    battery = AcceptanceBattery(seed)
    return [row for group in battery.GROUPS for row in battery.run(group)]


def cmd_report(args) -> ResultRecord:
    """The acceptance battery; the one subcommand that reads and writes the cache.

    A record is stored under its digest, which covers the seed and the
    source fingerprint, so a cache hit is what this code computes.
    An entry is written whole or not at all; one that cannot be read or
    does not parse as a record is a miss, recomputed and overwritten.  An
    entry that cannot be replaced, such as a directory of its name, is a
    usage error.
    """
    digest = config_hash(args.command.name, _options(args))
    path = os.path.join(args.cache_dir, digest + ".json") if args.cache_dir else None
    if path:
        try:
            with open(path) as fh:
                return ResultRecord.from_json(fh.read())
        except (OSError, ValueError, TypeError):
            pass
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"cannot create the cache directory: {exc}") from exc
    report = _record(args, "acceptance battery: every check with pass/fail marks",
                     ["check", "anchor", "measured", "threshold", "status"],
                     acceptance_rows(args.seed))
    if path:
        # a killed run leaves at most a stray partial file, never a partial entry
        partial = f"{path}.{os.getpid()}.partial"
        with open(partial, "w") as fh:
            fh.write(report.to_json())
        try:
            os.replace(partial, path)
        except OSError as exc:
            os.remove(partial)
            raise ParameterError(f"cannot write the cache entry {path}: {exc}") from exc
    return report


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ``ParameterError``, which ``main`` turns into exit 2
    and one stderr line, and matches option names only in full.

    A parser with commands refuses an option before the command name: argparse
    would read that option's value as the command.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        if (self._subparsers is not None and args and args[0].startswith("-")
                and args[0] not in ("-h", "--help")):
            self.error(f"{args[0]} comes before the command: options follow the command name")
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


class _Command(NamedTuple):
    """A command with the destinations of the options it declares."""

    name: str
    run: object
    options: tuple


def _grid(text: str) -> list[float]:
    grid = [float(tok) for tok in text.split(",") if tok]
    if not grid:
        raise argparse.ArgumentTypeError("the grid is empty")
    return grid


def _output_path(text: str) -> str:
    """A file to write once the command is done, checked before it starts."""
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"no such directory: {str(path.parent)!r}")
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


# Options that several commands declare: (flag, add_argument keywords).
_DELTA = ("--delta", {"type": float, "default": 0.5})
_G = ("--g", {"type": float, "default": 1.0})
_EPS = ("--eps", {"type": float, "default": ModelParams.eps})
_TAU = ("--tau", {"type": float, "default": 1.0})
_S = ("--s", {"type": complex, "default": "2"})
_VARIANT = ("--variant", {"choices": ("full", "parity+", "parity-", "asymmetric"),
                          "help": "default: asymmetric at eps > 0, else full"})
_SEED = ("--seed", {"type": int, "default": DEFAULT_SEED})
_N = ("--n", {"type": int, "default": 100_000, "help": "Monte Carlo samples"})
_TIME = ("--t", {"type": float, "default": 1.0})
_HORIZON = ("--T", {"type": float, "help": "path horizon half-width (default: from delta)"})


def _command(group, name: str, run, help: str, *options) -> argparse.ArgumentParser:
    """Add the parser of command ``name`` (``<group>/<leaf>`` for a leaf of a group)."""
    sp = group.add_parser(name.rsplit("/", 1)[-1], help=help)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", type=_output_path, help="write the record here instead of stdout")
    declared = tuple(sp.add_argument(flag, **keywords).dest for flag, keywords in options)
    sp.set_defaults(command=_Command(name, run, declared))
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rabizeta",
        description="spectra, spectral zeta functions, and jump-path Monte Carlo",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    _command(sub, "spectrum", cmd_spectrum, "eigenvalue table", _DELTA, _G, _EPS,
             ("--levels", {"type": int, "default": 12}),
             ("--variant", {"choices": ("full", "parity+", "parity-"), "default": "full"}),
             ("--rel-tol", {"type": float, "default": 1e-10}))
    _command(sub, "zeta", cmd_zeta, "one spectral zeta value", _DELTA, _G, _EPS, _TAU, _S,
             ("--n-head", {"type": int, "default": 2000}), _VARIANT)

    limits = sub.add_parser("limits", help="coupling-limit tables")
    tables = limits.add_subparsers(dest="table", required=True)
    limit = (_DELTA, _EPS, _VARIANT, ("--g-grid", {"type": _grid, "default": "2,4,6,8"}))
    _command(tables, "limits/zeta", _limits_zeta, "zeta_g(s; g^2 + tau) -> its coupling limit",
             *limit, _TAU, _S, ("--n-head", {"type": int}))
    _command(tables, "limits/levels", _limits_levels, "E_n(g) + g^2 -> n", *limit,
             ("--levels", {"type": int, "default": 6}))

    fk = sub.add_parser("fk", help="jump-path estimators vs exact values")
    quantities = fk.add_subparsers(dest="quantity", required=True)
    paths = (_DELTA, _G, _N, _SEED)  # quantities that sample their own paths
    ensemble = (*paths, _HORIZON)  # quantities on the ground-path ensemble
    _command(quantities, "fk/vacuum", _fk_vacuum, "vacuum semigroup element", *paths, _TIME)
    _command(quantities, "fk/partition", _fk_partition, "flat-state semigroup element",
             *paths, _TIME)
    _command(quantities, "fk/energy", _fk_energy, "ground energy from the decay rate", *paths,
             ("--t-grid", {"type": _grid, "default": "4,6,8,10"}))
    _command(quantities, "fk/kernel", _fk_kernel, "m-flip heat-kernel component", *paths, _TIME,
             ("--m", {"type": int, "default": 1}), ("--x", {"type": float, "default": 0.3}),
             ("--y", {"type": float, "default": -0.2}))
    for row in _OBSERVABLES:
        _command(quantities, f"fk/{row.leaf}", lambda args, row=row: _fk_observable(row, args),
                 row.help, *ensemble, row.option)
    _command(quantities, "fk/dump", _fk_dump, "write the path ensemble as JSON lines",
             *ensemble, ("--out", {"type": _output_path, "default": "paths.jsonl"}))

    _command(sub, "x1", cmd_x1, "damped sign integral laws",
             ("--delta", {"type": float, "default": 1.0}), _N, _SEED)
    report = _command(sub, "report", cmd_report, "acceptance battery with pass/fail marks", _SEED)
    # how to run, not what is computed: outside the record's options and digest
    report.add_argument("--cache-dir", help="read and write the record here, under its digest")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        record = args.command.run(args)
    except (ParameterError, DomainError, UnsupportedConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    _emit(record, args.format, args.output)
    if args.command.name == "report":
        failed = [row for row in record.rows if row[-1] == "FAIL"]
        if failed:
            print(f"{len(failed)} checks FAILED", file=sys.stderr)
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
