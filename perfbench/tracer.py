"""Span recorder that wraps the public functions of every rabizeta layer.

``Tracer.install`` replaces each public function of the layer modules with a
timing wrapper wherever a ``rabizeta`` module namespace binds it (the
package itself, the defining module, and every module that imported the
name), so calls between layers are seen too.  ``Tracer.restore`` puts the
originals back.  Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of its direct child
spans.  Private helpers (``_stable_spectrum``, ``_sample_segments``, the X1
wait matrix) are not wrapped, so their time is charged to the public caller.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("model", "observables", "zeta", "paths", "estimators", "jumplaw", "kernels", "cli")

# Layers whose repeated calls with identical arguments are counted as waste.
DUP_LAYERS = ("observables", "jumplaw")

MODEL_BUILDERS = ("build_full_hamiltonian", "build_parity_tridiagonal", "build_spin_boson_matrix")
LIMIT_TABLES = ("zeta_limit_table", "eigenvalue_limit_table")
SAMPLING_ESTIMATORS = ("vacuum_element_fk", "partition_fk", "ground_energy_fk")


class Stat:
    """Calls, inclusive and self seconds, and free-form counters of one function."""

    __slots__ = ("calls", "total", "self", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.counts = defaultdict(float)


def _arg_key(value, keep: list):
    """Hashable identity of one argument, by value where that is cheap to define."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return ("ndarray", value.shape, value.dtype.str, hashlib.sha1(data).hexdigest())
    if isinstance(value, (list, tuple)):
        return tuple(_arg_key(v, keep) for v in value)
    try:
        hash(value)
        return value
    except TypeError:
        keep.append(value)  # pins the object so its id cannot be reused in this pass
        return ("id", id(value))


def _keep_min(stat: Stat, name: str, value: float):
    current = stat.counts.get(name)
    stat.counts[name] = value if current is None else min(current, value)


def _on_success(tracer: "Tracer", key: str, bound: dict, result):
    """Counters read from the arguments and results of selected functions."""
    stat = tracer.stats[key]
    if key == "model.eigensolve":
        dim = bound["mat"].dim
        stat.counts["dim_sum"] += dim
        stat.counts["vector_calls"] += bool(bound.get("want_vectors"))
        for ancestor in {frame[0] for frame in tracer.stack}:
            tracer.stats[ancestor].counts["nested_solves"] += 1
            tracer.stats[ancestor].counts["nested_dim"] += dim
    elif key == "zeta.spectral_zeta":
        stat.counts["head_levels"] += result.n_used
        stat.counts["tail_bound_max"] = max(stat.counts["tail_bound_max"], result.tail_bound)
    elif key == "zeta.zeta_variant_value":
        stat.counts["n_used"] += result.n_used
    elif key == "paths.build_ground_ensemble":
        stat.counts["jumps"] += result.left_jumps.size + result.right_jumps.size
        _keep_min(stat, "n_eff_frac", result.n_eff / result.n_samples)
    elif key == "estimators.ground_energy_fk":
        stat.counts["samples"] += bound["n_samples"]
        _keep_min(stat, "n_eff_frac", result.n_eff / result.n_samples)
    elif key in ("estimators.vacuum_element_fk", "estimators.partition_fk",
                 "jumplaw.sample_damped_sign_pair"):
        stat.counts["samples"] += bound["n_samples"]
    elif key == "kernels.heat_kernel_component":
        stat.counts["samples"] += bound["n_samples"] if bound["m"] >= 1 else 0
    elif key == "kernels.gaussian_overlap_element_fk":
        stat.counts["samples"] += bound["n_samples"] * bound["m_max"]


class Tracer:
    """In-memory span accounting for one traced pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stack: list[list] = []  # frames [key, child seconds]
        self.top_level = 0.0  # seconds inside spans that have no parent span
        self.dup_calls = defaultdict(int)
        self._seen_args: set = set()
        self._keep: list = []
        self._patches: list = []

    def install(self):
        """Wrap every public layer function in every rabizeta namespace."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"rabizeta.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    originals[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "rabizeta" or n.startswith("rabizeta.")]
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((namespace, name, obj))
                    setattr(namespace, name, wrapper)

    def restore(self):
        for namespace, name, obj in reversed(self._patches):
            setattr(namespace, name, obj)
        self._patches.clear()
        self._keep.clear()
        self._seen_args.clear()

    def _wrap(self, key: str, fn):
        signature = inspect.signature(fn)
        layer = key.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += elapsed
                else:
                    self.top_level += elapsed
                stat = self.stats[key]
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - frame[1]
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if layer in DUP_LAYERS:
                call_key = (key, tuple((n, _arg_key(v, self._keep))
                                       for n, v in bound.arguments.items()))
                if call_key in self._seen_args:
                    self.dup_calls[layer] += 1
                self._seen_args.add(call_key)
            _on_success(self, key, bound.arguments, result)
            return result

        return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_seconds: float, cache_files: int = 0,
                  cache_bytes: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    s = tracer.stats

    def calls(*keys):
        return float(sum(s[k].calls for k in keys if k in s))

    def self_s(*keys):
        return sum((s[k].self for k in keys if k in s), 0.0)

    def total_s(*keys):
        return sum((s[k].total for k in keys if k in s), 0.0)

    def count(key, name):
        return s[key].counts.get(name, 0.0) if key in s else 0.0

    def layer_keys(layer, exclude=()):
        return [k for k in s if k.split(".", 1)[0] == layer
                and k.split(".", 1)[1] not in exclude]

    eig, ada, zvv, gsk = ("model.eigensolve", "model.adaptive_spectrum",
                          "zeta.zeta_variant_value", "observables.ground_state")
    sampling = [f"estimators.{n}" for n in SAMPLING_ESTIMATORS]
    x1 = "jumplaw.sample_damped_sign_pair"
    kernel_sampling = ["kernels.heat_kernel_component", "kernels.gaussian_overlap_element_fk"]
    return {
        "model.eigensolve.calls": calls(eig),
        "model.eigensolve.self_s": self_s(eig),
        "model.eigensolve.dim_sum": count(eig, "dim_sum"),
        "model.eigensolve.vector_calls": count(eig, "vector_calls"),
        "model.build.self_s": self_s(*(f"model.{n}" for n in MODEL_BUILDERS)),
        "model.adaptive_spectrum.calls": calls(ada),
        "model.adaptive_spectrum.self_s": self_s(ada),
        "model.adaptive_spectrum.solves_per_call": _ratio(count(ada, "nested_solves"), calls(ada)),
        "zeta.zeta_variant_value.calls": calls(zvv),
        "zeta.zeta_variant_value.self_s": self_s(zvv),
        "zeta.zeta_variant_value.solves_per_value":
            _ratio(count(zvv, "nested_solves"), calls(zvv)),
        "zeta.zeta_variant_value.solved_dim_per_level":
            _ratio(count(zvv, "nested_dim"), count(zvv, "n_used")),
        "zeta.spectral_zeta.calls": calls("zeta.spectral_zeta"),
        "zeta.spectral_zeta.self_s": self_s("zeta.spectral_zeta"),
        "zeta.spectral_zeta.head_levels": count("zeta.spectral_zeta", "head_levels"),
        "zeta.spectral_zeta.tail_bound_max": count("zeta.spectral_zeta", "tail_bound_max"),
        "zeta.hurwitz_zeta.calls": calls("zeta.hurwitz_zeta"),
        "zeta.hurwitz_zeta.self_s": self_s("zeta.hurwitz_zeta"),
        "zeta.limit_tables.self_s": self_s(*(f"zeta.{n}" for n in LIMIT_TABLES)),
        "observables.ground_state.calls": calls(gsk),
        "observables.ground_state.self_s": self_s(gsk),
        "observables.ground_state.solves_per_call": _ratio(count(gsk, "nested_solves"), calls(gsk)),
        "observables.oracle.calls": calls(*layer_keys("observables", ("ground_state",))),
        "observables.oracle.self_s": self_s(*layer_keys("observables", ("ground_state",))),
        "observables.dup_calls": float(tracer.dup_calls["observables"]),
        "paths.build_ground_ensemble.calls": calls("paths.build_ground_ensemble"),
        "paths.build_ground_ensemble.self_s": self_s("paths.build_ground_ensemble"),
        "paths.build_ground_ensemble.jumps": count("paths.build_ground_ensemble", "jumps"),
        "paths.build_ground_ensemble.n_eff_frac":
            count("paths.build_ground_ensemble", "n_eff_frac"),
        "estimators.ground_energy_fk.n_eff_frac": count("estimators.ground_energy_fk", "n_eff_frac"),
        "estimators.vacuum_element_fk.self_s": self_s("estimators.vacuum_element_fk"),
        "estimators.partition_fk.self_s": self_s("estimators.partition_fk"),
        "estimators.ground_energy_fk.self_s": self_s("estimators.ground_energy_fk"),
        "estimators.ensemble.self_s": self_s(*layer_keys("estimators", SAMPLING_ESTIMATORS)),
        "estimators.samples_per_s":
            _ratio(sum(count(k, "samples") for k in sampling), total_s(*sampling)),
        "jumplaw.sample_damped_sign_pair.calls": calls(x1),
        "jumplaw.sample_damped_sign_pair.self_s": self_s(x1),
        "jumplaw.sample_damped_sign_pair.samples_per_s": _ratio(count(x1, "samples"), total_s(x1)),
        "jumplaw.pair_moment_table.self_s": self_s("jumplaw.pair_moment_table"),
        "jumplaw.damped_sign_ks.self_s": self_s("jumplaw.damped_sign_ks"),
        "jumplaw.dup_calls": float(tracer.dup_calls["jumplaw"]),
        "kernels.heat_kernel_component.calls": calls("kernels.heat_kernel_component"),
        "kernels.heat_kernel_component.self_s": self_s("kernels.heat_kernel_component"),
        "kernels.gaussian_overlap_element_fk.self_s": self_s("kernels.gaussian_overlap_element_fk"),
        "kernels.samples_per_s": _ratio(sum(count(k, "samples") for k in kernel_sampling),
                                        total_s(*kernel_sampling)),
        "cli.self_s": self_s(*layer_keys("cli")),
        "cli.cache.files": float(cache_files),
        "cli.cache.bytes": float(cache_bytes),
        "trace.unattributed_frac": _ratio(pass_seconds - tracer.top_level, pass_seconds),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
