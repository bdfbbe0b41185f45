"""Command-line interface: every computation as a reproducible subcommand.

    rabizeta spectrum --delta 0.5 --g 0 --levels 6
    rabizeta zeta --s 2 --tau 1 --delta 0 --g 3
    rabizeta limits --variant parity+ --g-grid 2,4,6,8
    rabizeta fk vacuum --t 1 --delta 0.5 --g 1 --n 100000
    rabizeta x1 --delta 1 --n 100000
    rabizeta report --cache-dir ./cache

Flags may come from a flat ``key=value`` config file (``--config``); explicit
flags win.  The seed defaults to a fixed constant so identical invocations
produce byte-identical data rows.  Output is CSV (default) or JSON; records
carry a stable digest of their canonicalized configuration and of the
package sources, and an anchor string naming the mathematical claim they
exercise.  Only ``report`` keeps a cache (``--cache-dir`` or
``$RABIZETA_CACHE``), keyed by that digest.

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
    gibbs_number_ed,
    ground_state,
    number_moment_ed,
    number_parity_expectation,
    parity_expectation_lab,
    partition_ed,
    pull_through_residual,
    spin_autocorrelation_ed,
    vacuum_element_ed,
    x_characteristic_ed,
    x_square_exponential_ed,
)
from .paths import DEFAULT_SEED, build_ground_ensemble, default_horizon
from .zeta import (
    eigenvalue_limit_table,
    hurwitz_zeta,
    variant_target,
    zeta_limit_table,
    zeta_variant_value,
)

CACHE_ENV = "RABIZETA_CACHE"


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
    if isinstance(v, float):
        return repr(v)
    return str(v)


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


def _emit(record: ResultRecord, fmt: str, output: str | None):
    text = record.to_json() if fmt == "json" else record.to_csv()
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# Shared option plumbing
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"config line {raw!r} is not key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args, key: str, cast, default):
    """CLI flag if given, else config-file value, else the built-in default.

    ``cast`` applies to a flag value as well as to a config-file value; a
    value it cannot convert is a ``ParameterError``.
    """
    value = getattr(args, key, None)
    if value is None:
        value = getattr(args, "_config_values", {}).get(key)
    if value is None:
        return default
    try:
        return cast(value)
    except ParameterError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{key} = {value!r} is not a valid value: {exc}") from exc


def _real(value) -> float:
    """Cast a complex-typed option (``--beta``) for a quantity that needs it real."""
    z = complex(value)
    if z.imag:
        raise ParameterError(f"beta must be real for this quantity, got {value}")
    return z.real


def _params_from(args) -> ModelParams:
    return ModelParams(
        delta=_resolve(args, "delta", float, 0.5),
        g=_resolve(args, "g", float, 1.0),
        eps=_resolve(args, "eps", float, 0.0),
        tau=_resolve(args, "tau", float, 1.0),
    )


def _common_options(args) -> dict:
    p = _params_from(args)
    return {
        "delta": p.delta,
        "g": p.g,
        "eps": p.eps,
        "tau": p.tau,
        "seed": _resolve(args, "seed", int, DEFAULT_SEED),
    }


def _grid(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> ResultRecord:
    params = _params_from(args)
    levels = _resolve(args, "levels", int, 12)
    variant = _resolve(args, "variant", str, "full")
    rel_tol = _resolve(args, "rel_tol", float, 1e-10)
    options = {**_common_options(args), "levels": levels, "variant": variant,
               "rel_tol": rel_tol}
    spec = adaptive_spectrum(params, k=levels, rel_tol=rel_tol, variant=variant)
    rows = []
    for n in range(min(levels, len(spec))):
        tag = int(spec.parity[n]) if spec.parity is not None else 0
        energy = float(spec.eigenvalues[n])
        rows.append([n, tag, energy, energy + params.g**2])
    return ResultRecord(
        config_hash=config_hash("spectrum", options),
        quantity="spectrum",
        anchor="eigenvalues ascending; E_0 + g^2 >= -delta - eps",
        columns=["n", "parity", "energy", "shifted_energy"],
        rows=rows,
        meta={**options, "n_max": spec.truncation.n_max,
              "converged_count": spec.converged_count,
              "refinement": [list(step) for step in spec.refinement]},
        timestamp=_now(),
    )


def cmd_zeta(args) -> ResultRecord:
    params = _params_from(args)
    params.require_zeta_shift()
    s = complex(_resolve(args, "s", complex, 2.0))
    tau = params.tau
    n_head = _resolve(args, "n_head", int, 2000)
    variant = _resolve(args, "variant", str, "asymmetric" if params.eps > 0 else "full")
    options = {**_common_options(args), "s": repr(s), "n_head": n_head, "variant": variant}
    zv = zeta_variant_value(params, s, tau, variant, n_head)
    target = variant_target(params, s, tau, variant)
    rows = [[
        variant, float(zv.value.real), float(zv.value.imag),
        float(target.real), float(target.imag),
        abs(zv.value - target), zv.tail_bound, zv.n_used,
    ]]
    return ResultRecord(
        config_hash=config_hash("zeta", options),
        quantity="zeta",
        anchor="spectral zeta zeta_g(s; g^2 + tau) with bracketed Hurwitz tail",
        columns=["variant", "value_re", "value_im", "limit_re", "limit_im",
                 "deviation_from_limit", "tail_bound", "n_used"],
        rows=rows,
        meta=options,
        timestamp=_now(),
    )


def cmd_limits(args) -> ResultRecord:
    params = _params_from(args)
    table = _resolve(args, "table", str, "zeta")
    grid = _grid(_resolve(args, "g_grid", str, "2,4,6,8"))
    variant = _resolve(args, "variant", str, "full")
    options = {**_common_options(args), "table": table, "variant": variant,
               "g_grid": ",".join(repr(g) for g in grid)}
    if table == "zeta":
        s = complex(_resolve(args, "s", complex, 2.0))
        n_head = _resolve(args, "n_head", int, None) or None
        options["s"] = repr(s)
        rows_out = zeta_limit_table(params, s, params.tau, grid, variant, n_head)
        anchors = {
            "full": "limit |g|->inf: zeta_g(s; g^2+tau) -> 2 zeta(s; tau)",
            "parity+": "limit |g|->inf: sector zeta -> zeta(s; tau)",
            "parity-": "limit |g|->inf: sector zeta -> zeta(s; tau)",
            "asymmetric": "limit |g|->inf: zeta_eps -> zeta(s;tau+eps) + zeta(s;tau-eps)",
        }
        rows = [
            [r.g, float(r.value.real), float(r.value.imag), float(r.target.real),
             r.deviation, r.tail_bound, r.n_used]
            for r in rows_out
        ]
        return ResultRecord(
            config_hash=config_hash("limits", options),
            quantity="limits/zeta",
            anchor=anchors[variant],
            columns=["g", "value_re", "value_im", "target_re", "deviation",
                     "tail_bound", "n_used"],
            rows=rows,
            meta=options,
            timestamp=_now(),
        )
    if table == "levels":
        n_levels = _resolve(args, "levels", int, 6)
        options["levels"] = n_levels
        lvl_variant = "asymmetric" if params.eps > 0 else "parity"
        rows_out = eigenvalue_limit_table(params, grid, n_levels, lvl_variant)
        rows = [[r.g, r.n, r.parity, r.shifted, r.target, r.deviation] for r in rows_out]
        return ResultRecord(
            config_hash=config_hash("limits", options),
            quantity="limits/levels",
            anchor="limit |g|->inf: E_n(g) + g^2 -> integer (split by eps when tilted)",
            columns=["g", "n", "parity", "shifted_energy", "target", "deviation"],
            rows=rows,
            meta=options,
            timestamp=_now(),
        )
    raise ParameterError(f"unknown limits table {table!r}")


_FK_QUANTITIES = (
    "vacuum", "partition", "energy", "gibbs", "number",
    "xchar", "xsquare", "spin-corr", "kernel", "dump",
)


def cmd_fk(args) -> ResultRecord:
    params = _params_from(args)
    if params.eps != 0.0:
        raise ParameterError(f"jump-path quantities exist at eps = 0 only, got {params.eps}")
    quantity = args.fk_quantity
    n = _resolve(args, "n", int, 100_000)
    seed = _resolve(args, "seed", int, DEFAULT_SEED)
    t = _resolve(args, "t", float, 1.0)
    horizon = _resolve(args, "T", float, None)
    options = {**_common_options(args), "fk": quantity, "n": n, "t": t,
               "T": horizon if horizon is None else float(horizon)}

    def record(rows, columns, anchor, meta_extra=None):
        return ResultRecord(
            config_hash=config_hash("fk/" + quantity, options),
            quantity="fk/" + quantity,
            anchor=anchor,
            columns=columns,
            rows=rows,
            meta={**options, **(meta_extra or {})},
            timestamp=_now(),
        )

    est_columns = ["quantity", "value_re", "value_im", "stderr",
                   "oracle_re", "oracle_im", "z", "n_eff", "note"]

    def est_row(name, est, oracle):
        oracle = complex(oracle)
        return [name, float(np.real(est.mean)), float(np.imag(est.mean)),
                est.stderr, oracle.real, oracle.imag, est.z_score(oracle),
                -1.0 if est.n_eff is None else float(est.n_eff), est.note or "ok"]

    if quantity == "vacuum":
        est = vacuum_element_fk(params, t, n, seed)
        oracle = vacuum_element_ed(params, t)
        return record([est_row("vacuum_element", est, oracle)], est_columns,
                      "vacuum semigroup element: 2 e^t E[delta^N exp(-2 g^2 xi)]")
    if quantity == "partition":
        est = partition_fk(params, t, n, seed)
        oracle = partition_ed(params, t)
        return record([est_row("partition", est, oracle)], est_columns,
                      "flat-state element: 2 e^(delta t) E[exp((g^2/2) J)]")
    if quantity == "energy":
        t_grid = _grid(_resolve(args, "t_grid", str, "4,6,8,10"))
        options["t_grid"] = ",".join(repr(v) for v in t_grid)
        est = ground_energy_fk(params, t_grid, n, seed)
        oracle = ground_state(params).energy
        rows = [est_row("ground_energy", est, oracle)]
        return record(rows, est_columns,
                      "ground energy from the semigroup decay rate",
                      {"series": est.extras["series"]})

    if quantity == "dump":
        ens = build_ground_ensemble(params, n, horizon, seed)
        target = _resolve(args, "out", str, None) or "paths.jsonl"
        options["out"] = target
        T = ens.half_width
        lefts = np.split(ens.left_jumps, ens.left_offsets[1:-1])
        rights = np.split(ens.right_jumps, ens.right_offsets[1:-1])
        with open(target, "w") as fh:
            for i, (left, right) in enumerate(zip(lefts, rights)):
                fh.write(json.dumps({
                    "alpha0": int(ens.alpha0[i]),
                    "horizon": [-T, T],
                    "jumps": left.tolist() + right.tolist(),
                    "log_weight": float(ens.log_weights[i]),
                }) + "\n")
        return record([[T, ens.n_samples, ens.n_eff, target]],
                      ["T", "n_paths", "n_eff", "path"],
                      "ensemble dump: one record per weighted path")

    # Each quantity resolves its options and evaluates its exact value, whose
    # domain checks reject bad options, before the ensemble is sampled.
    if quantity == "kernel":
        m = _resolve(args, "m", int, 1)
        x = _resolve(args, "x", float, 0.3)
        y = _resolve(args, "y", float, -0.2)
        options.update({"m": m, "x": x, "y": y})
        est = heat_kernel_component(params, t, m, x, y, n, seed)
        base = float(mehler_kernel(t, x, y))
        rows = [[f"heat_kernel_m{m}", float(np.real(est.mean)), float(np.imag(est.mean)),
                 est.stderr, base, 0.0, -1.0, -1.0, "oracle column = Mehler kernel"]]
        return record(rows, est_columns,
                      "m-flip kernel component (delta t)^m/m! E[CF_bridge] M_t")
    if quantity == "gibbs":
        beta = complex(_resolve(args, "beta", complex, -0.5))
        options["beta"] = repr(beta)
        oracle = gibbs_number_ed(ground_state(params), beta)
        ens = build_ground_ensemble(params, n, horizon, seed)
        est = gibbs_number_fk(ens, params, beta)
        return record([est_row("gibbs_number", est, oracle)], est_columns,
                      "<exp(beta n)> = <exp(-g^2 (1 - e^beta) Jc)>_paths")
    if quantity == "number":
        m = _resolve(args, "m", int, 1)
        options["m"] = m
        _check_moment_order(m)
        oracle = number_moment_ed(ground_state(params), m)
        ens = build_ground_ensemble(params, n, horizon, seed)
        est = number_moments_fk(ens, params, m)
        return record([est_row(f"number_moment_{m}", est, oracle)], est_columns,
                      "<n^m> = sum_l S(m,l) g^(2l) <Jc^l>_paths")
    if quantity == "xchar":
        beta = _resolve(args, "beta", _real, 1.0)
        options["beta"] = beta
        oracle = x_characteristic_ed(ground_state(params), beta)
        ens = build_ground_ensemble(params, n, horizon, seed)
        est = x_characteristic_fk(ens, params, beta)
        return record([est_row("x_characteristic", est, oracle)], est_columns,
                      "<exp(i beta x)> = e^(-beta^2/4) <cos(beta K)>_paths")
    if quantity == "xsquare":
        beta = _resolve(args, "beta", _real, 0.5)
        options["beta"] = beta
        oracle = x_square_exponential_ed(ground_state(params), beta)
        ens = build_ground_ensemble(params, n, horizon, seed)
        est = gaussian_square_fk(ens, params, beta)
        return record([est_row("x_square_exponential", est, oracle)], est_columns,
                      "<exp(beta x^2)> = (1-beta)^(-1/2) <exp(beta K^2/(1-beta))>_paths")
    if quantity == "spin-corr":
        lag = _resolve(args, "lag", float, 1.0)
        options["lag"] = lag
        T = default_horizon(params.delta) if horizon is None else horizon
        _check_edge_guard(T, lag / 2.0, -lag / 2.0)
        oracle = spin_autocorrelation_ed(ground_state(params), lag)
        ens = build_ground_ensemble(params, n, horizon, seed)
        est = spin_correlation_fk(ens, lag / 2.0, -lag / 2.0)
        return record([est_row(f"spin_correlation_{lag}", est, oracle)], est_columns,
                      "<sz exp(-|t-s|(M-E)) sz> = <T_t T_s>_paths")
    raise ParameterError(f"unknown fk quantity {quantity!r}")


def cmd_x1(args) -> ResultRecord:
    delta = _resolve(args, "delta", float, 1.0)
    n = _resolve(args, "n", int, 100_000)
    seed = _resolve(args, "seed", int, DEFAULT_SEED)
    options = {"delta": delta, "n": n, "seed": seed}
    x1, x2 = sample_damped_sign_pair(delta, n, seed)
    rows = []
    for row in _pair_moment_rows(delta, x1, x2):
        rows.append([row["moment"], row["closed"], row["mc"], row["stderr"], row["z"]])
    ks = damped_sign_ks(delta, x1)
    crit = ks_critical_value(n)
    rows.append(["KS_statistic", crit, ks, 0.0, ks / crit])
    return ResultRecord(
        config_hash=config_hash("x1", options),
        quantity="x1",
        anchor="damped sign integrals: Beta-family law and closed moments",
        columns=["moment", "closed_or_critical", "mc", "stderr", "z_or_ratio"],
        rows=rows,
        meta=options,
        timestamp=_now(),
    )


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


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
    ground state and one path ensemble (delta = 0.5, g = 1), built on first
    use whatever order the groups run in.  Group bodies reach the layer
    functions through this module's globals when they run, so wrappers
    installed on those names see every call.
    """

    GROUPS = ("free-spectrum", "delta0-shift", "zeta-g0", "zeta-limit", "level-limit",
              "fk", "x1", "pull-through", "parity", "kernels")
    # (variant, epsilon) rows of the zeta-limit group, in report order
    ZETA_LIMIT_CASES = (("full", 0.0), ("parity+", 0.0), ("parity-", 0.0), ("asymmetric", 0.25))

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.n_mc = 20_000 if quick else 100_000
        self.params = ModelParams(0.5, 1.0)

    @cached_property
    def gs(self):
        return ground_state(self.params)

    @cached_property
    def ens(self):
        return build_ground_ensemble(self.params, self.n_mc, seed=self.seed)

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
        p, gs, ens, n, seed = self.params, self.gs, self.ens, self.n_mc, self.seed
        pairs = [
            ("fk/vacuum", vacuum_element_fk(p, 1.0, n, seed), vacuum_element_ed(p, 1.0)),
            ("fk/partition", partition_fk(p, 2.0, n, seed), partition_ed(p, 2.0)),
            ("fk/energy", ground_energy_fk(p, [4, 6, 8, 10], n, seed), gs.energy),
            ("fk/gibbs(-0.5)", gibbs_number_fk(ens, p, -0.5), gibbs_number_ed(gs, -0.5)),
            ("fk/gibbs(i pi)", gibbs_number_fk(ens, p, 1j * np.pi),
             gibbs_number_ed(gs, 1j * np.pi)),
            ("fk/number(1)", number_moments_fk(ens, p, 1), number_moment_ed(gs, 1)),
            ("fk/number(2)", number_moments_fk(ens, p, 2), number_moment_ed(gs, 2)),
            ("fk/xchar(1)", x_characteristic_fk(ens, p, 1.0), x_characteristic_ed(gs, 1.0)),
            ("fk/xsquare(0.5)", gaussian_square_fk(ens, p, 0.5),
             x_square_exponential_ed(gs, 0.5)),
            ("fk/spin-corr(0.5)", spin_correlation_fk(ens, 0.25, -0.25),
             spin_autocorrelation_ed(gs, 0.5)),
            ("fk/spin-corr(1)", spin_correlation_fk(ens, 0.5, -0.5),
             spin_autocorrelation_ed(gs, 1.0)),
        ]
        return [_check(name, "jump-path estimator within 3 sigma of the exact value",
                       est.z_score(oracle), 3.0) for name, est, oracle in pairs]

    def _x1(self):
        rows = []
        for delta in (0.5, 1.0, 2.0):
            x1, x2 = sample_damped_sign_pair(delta, self.n_mc, self.seed)
            pair = _pair_moment_rows(delta, x1, x2)
            zs = [row["z"] for row in pair]
            for m in (1, 2, 3, 4):
                draws = x1 ** (2 * m)
                stderr = draws.std(ddof=1) / np.sqrt(draws.size)
                zs.append(abs(draws.mean() - damped_sign_moment(delta, m)) / stderr)
            rows.append(_check(f"x1-moments(delta={delta})",
                               "closed pair moments and E[X1^2m] for m<=4 within 3 sigma",
                               max(zs), 3.0))
            cov = next(row["mc"] for row in pair if row["moment"] == "cov(X1,X2)")
            rows.append(_check(f"x1-cov(delta={delta})", "sampled cov(X1,X2) is positive",
                               cov, 0.0, cov > 0))
            ks = damped_sign_ks(delta, x1)
            crit = ks_critical_value(self.n_mc)
            rows.append(_check(f"x1-law(delta={delta})",
                               "KS statistic below the 1% critical value", ks, crit))
        return rows

    def _pull_through(self):
        resid = pull_through_residual(self.gs)
        return [_check("pull-through", "|b psi|^2 = g^2 |(M-E+1)^{-1} sz psi|^2", resid, 1e-6)]

    def _parity(self):
        dev = abs(parity_expectation_lab(self.params, self.gs.truncation) + 1.0)
        npar_ed = number_parity_expectation(self.gs)
        npar_fk = gibbs_number_fk(self.ens, self.params, 1j * np.pi)
        return [
            _check("parity", "ground state is odd under the conserved Z2 charge", dev, 1e-8),
            _check("number-parity", "<(-1)^n> positive in both routes", npar_ed, 0.0,
                   npar_ed > 0 and npar_fk.real > 0),
        ]

    def _kernels(self):
        from scipy.integrate import quad

        comp = 0.0
        for t, s, x, y in ((0.5, 0.5, 0.3, -0.2), (0.3, 0.9, -0.7, 0.4)):
            val, _ = quad(lambda z: float(mehler_kernel(t, x, z) * mehler_kernel(s, z, y)),
                          -np.inf, np.inf)
            comp = max(comp, abs(val - float(mehler_kernel(t + s, x, y))))
        rec = gaussian_overlap_element_fk(self.params, 1.0, 6, n_samples=self.n_mc,
                                          seed=self.seed)
        z = rec.z_score(vacuum_element_ed(self.params, 1.0))
        devs = [abs(heat_kernel_flip_sum(ModelParams(0.5, g), 1.0, 0.3, -0.2, 6,
                                         n_samples=max(self.n_mc // 5, 4000),
                                         seed=self.seed).mean)
                for g in (2.0, 6.0)]
        return [
            _check("mehler-semigroup", "kernel composition M_t * M_s = M_{t+s}", comp, 1e-6),
            _check("kernel-reconstruction", "flip expansion reproduces the exact Gaussian element",
                   z, 3.0),
            _check("kernel-limit", "flip-sum deviation from Mehler shrinks from g=2 to g=6",
                   devs[1], devs[0]),
        ]


def acceptance_rows(seed: int, quick: bool) -> list[list]:
    """Every row of every acceptance group, in battery order."""
    battery = AcceptanceBattery(seed, quick)
    return [row for group in battery.GROUPS for row in battery.run(group)]


def cmd_report(args) -> ResultRecord:
    """The acceptance battery; the one subcommand that reads and writes the cache.

    A record is stored under its digest, which covers the seed, ``--quick``
    and the source fingerprint, so a cache hit is what this code computes.
    """
    seed = _resolve(args, "seed", int, DEFAULT_SEED)
    quick = bool(_resolve(args, "quick", lambda v: v in (True, "1", "true", "yes"), False))
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    options = {"seed": seed, "quick": quick}
    digest = config_hash("report", options)
    path = os.path.join(cache_dir, digest + ".json") if cache_dir else None
    if path and os.path.exists(path):
        with open(path) as fh:
            return ResultRecord.from_json(fh.read())

    def record(anchor, rows):
        return ResultRecord(config_hash=digest, quantity="report", anchor=anchor,
                            columns=["check", "anchor", "measured", "threshold", "status"],
                            rows=rows, meta=options, timestamp=_now())

    if args.no_compute:
        # never stored: it would stand in for the real report under the same digest
        return record("acceptance battery (cache only)",
                      [["all", "no cache entry and compute disabled", 0.0, 0.0, "SKIPPED"]])
    report = record("acceptance battery: every check with pass/fail marks",
                    acceptance_rows(seed, quick))
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(report.to_json())
    return report


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _add_global_options(parser, suppress: bool):
    # duplicated on subparsers with SUPPRESS defaults so the flags are
    # accepted on either side of the subcommand without clobbering
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=d, help="flat key=value configuration file")
    parser.add_argument("--format", choices=("csv", "json"),
                        default=argparse.SUPPRESS if suppress else "csv")
    parser.add_argument("--output", default=d,
                        help="write the record here instead of stdout")
    parser.add_argument("--cache-dir", default=d,
                        help=f"report cache directory (or ${CACHE_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabizeta",
        description="spectra, spectral zeta functions, and jump-path Monte Carlo",
    )
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        _add_global_options(sp, suppress=True)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--g", type=float)
        sp.add_argument("--eps", type=float)
        sp.add_argument("--tau", type=float)
        sp.add_argument("--seed", type=int)

    sp = sub.add_parser("spectrum", help="eigenvalue table")
    common(sp)
    sp.add_argument("--levels", type=int)
    sp.add_argument("--variant", choices=("full", "parity+", "parity-"))
    sp.add_argument("--rel-tol", dest="rel_tol", type=float)

    sp = sub.add_parser("zeta", help="one spectral zeta value")
    common(sp)
    sp.add_argument("--s", type=complex)
    sp.add_argument("--n-head", dest="n_head", type=int)
    sp.add_argument("--variant", choices=("full", "parity+", "parity-", "asymmetric"))

    sp = sub.add_parser("limits", help="coupling-limit tables")
    common(sp)
    sp.add_argument("--table", choices=("zeta", "levels"))
    sp.add_argument("--variant", choices=("full", "parity+", "parity-", "asymmetric"))
    sp.add_argument("--g-grid", dest="g_grid")
    sp.add_argument("--s", type=complex)
    sp.add_argument("--n-head", dest="n_head", type=int)
    sp.add_argument("--levels", type=int)

    sp = sub.add_parser("fk", help="jump-path estimators vs exact values")
    sp.add_argument("fk_quantity", choices=_FK_QUANTITIES)
    common(sp)
    sp.add_argument("--t", type=float)
    sp.add_argument("--t-grid", dest="t_grid")
    sp.add_argument("--T", dest="T", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--beta", type=complex)
    sp.add_argument("--m", type=int)
    sp.add_argument("--lag", type=float)
    sp.add_argument("--x", type=float)
    sp.add_argument("--y", type=float)
    sp.add_argument("--out", help="path-ensemble dump target (fk dump)")

    sp = sub.add_parser("x1", help="damped sign integral laws")
    _add_global_options(sp, suppress=True)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int)

    sp = sub.add_parser("report", help="acceptance battery with pass/fail marks")
    _add_global_options(sp, suppress=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--quick", action="store_const", const=True)
    sp.add_argument("--no-compute", dest="no_compute", action="store_true")
    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "zeta": cmd_zeta,
    "limits": cmd_limits,
    "fk": cmd_fk,
    "x1": cmd_x1,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config_values = _load_config_file(args.config) if args.config else {}
        record = _COMMANDS[args.subcommand](args)
    except (ParameterError, DomainError, UnsupportedConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    _emit(record, args.format, args.output)
    if args.subcommand == "report":
        failed = [row for row in record.rows if row[-1] == "FAIL"]
        if failed:
            print(f"{len(failed)} checks FAILED", file=sys.stderr)
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
