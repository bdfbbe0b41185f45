"""Source guards: ``rabizeta.paths`` makes every random generator, draws every wait
and alone reads the ensemble's jump format; and no two entry points share a stream.

Every sampler draws through ``paths._seed_streams``, so one rule decides
which stream every sample comes from.  A module that built its own generator
or split its own samples into streams would bypass that rule.  Each entry
point draws under its own name, whose spawn-key prefix ``paths._STREAM_KEYS``
gives, so no two checks of one seed walk the same waits.  Every Poisson
path is walked by ``paths._sweep``, one exponential wait at a time, so the
X1 law that tests certify is the law of every path estimate; a module that
drew its own waits or Poisson counts would be a second sampler.  The
ensemble stores both sides of a path as distances from 0; a module that
read those arrays would be a second owner of that format.
"""

import ast
import re
from pathlib import Path

import numpy as np

import rabizeta
from rabizeta import estimators, jumplaw, kernels, paths
from rabizeta.model import ModelParams

PACKAGE = Path(rabizeta.__file__).parent
FORBIDDEN = re.compile(r"\b(SeedSequence|PCG64|default_rng|stream_chunks)\b|\bnp\.random\b")
WAIT_DRAWS = {"standard_exponential", "exponential", "poisson"}
JUMP_FIELDS = {"left_jumps", "right_jumps", "left_offsets", "right_offsets"}


def test_only_paths_makes_generators():
    offenders = []
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "paths.py":
            continue
        for number, line in enumerate(source.read_text().splitlines(), 1):
            if FORBIDDEN.search(line):
                offenders.append(f"{source.name}:{number}: {line.strip()}")
    assert not offenders, "random generators outside paths.py:\n" + "\n".join(offenders)


def wait_draws(source: Path) -> list[tuple[str, int, str]]:
    """(enclosing function, line, name) of every call of a wait or count draw in ``source``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in WAIT_DRAWS:
                    found.append((function, child.lineno, name))
            visit(child, function)

    visit(ast.parse(source.read_text()), "<module>")
    return found


def test_only_paths_draws_waits():
    offenders = [f"{source.name}:{line}: {name}" for source in sorted(PACKAGE.glob("*.py"))
                 if source.name != "paths.py" for _, line, name in wait_draws(source)]
    assert not offenders, "wait or Poisson draws outside paths.py:\n" + "\n".join(offenders)


def test_paths_draws_waits_in_one_function():
    draws = wait_draws(PACKAGE / "paths.py")
    assert {name for _, _, name in draws} == {"standard_exponential"}
    assert len({function for function, _, _ in draws}) == 1


def test_only_paths_reads_the_jump_format():
    offenders = [f"{source.name}:{node.lineno}: {node.attr}"
                 for source in sorted(PACKAGE.glob("*.py")) if source.name != "paths.py"
                 for node in ast.walk(ast.parse(source.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in JUMP_FIELDS]
    assert not offenders, "ensemble jump arrays read outside paths.py:\n" + "\n".join(offenders)


#: The names whose entry points append the flip order m to their prefix.
ORDERED = {"heat-kernel", "overlap"}
P = ModelParams(0.5, 1.0)
#: The entry points that draw samples, grouped by the streams they must share.
ENTRY_POINTS = {
    "build_ground_ensemble": [lambda: paths.build_ground_ensemble(P, 100)],
    "vacuum_element_fk": [lambda: estimators.vacuum_element_fk(P, 1.0, 100)],
    "heat_kernel_component": [
        lambda: kernels.heat_kernel_component(P, 1.0, 2, 0.3, -0.2, 100),
        lambda: kernels.heat_kernel_flip_sum(P, 1.0, 0.3, -0.2, 6, 100),
    ],
    "sample_damped_sign_pair": [lambda: jumplaw.sample_damped_sign_pair(0.5, 100)],
    "partition_fk": [lambda: estimators.partition_fk(P, 2.0, 100)],
    "ground_energy_fk": [lambda: estimators.ground_energy_fk(P, [1.0, 2.0], 100)],
    "gaussian_overlap_element_fk": [lambda: kernels.gaussian_overlap_element_fk(P, 1.0, 6, 100)],
}


def test_no_two_entry_points_give_one_spawn_key():
    owner = {}
    for sampler, prefix in paths._STREAM_KEYS.items():
        for order in [(m,) for m in range(1, 11)] if sampler in ORDERED else [()]:
            for stream in range(paths.N_STREAMS):
                key = (*prefix, *order, stream)
                assert owner.setdefault(key, sampler) == sampler, (sampler, owner[key], key)


def test_every_entry_point_draws_under_its_own_name(monkeypatch):
    drawn, streams = [], paths._seed_streams

    def recorded(seed, n_samples, sampler, *order):
        drawn.append((sampler, order))
        return streams(seed, n_samples, sampler, *order)

    for module in (estimators, jumplaw, kernels, paths):
        monkeypatch.setattr(module, "_seed_streams", recorded)
    names = {}
    for entry, calls in ENTRY_POINTS.items():
        drawn.clear()
        for call in calls:
            call()
        (names[entry],) = {sampler for sampler, _ in drawn}
        orders = {order for _, order in drawn}
        if names[entry] in ORDERED:
            assert orders <= {(m,) for m in range(1, 11)}, entry
        else:
            assert orders == {()}, entry
    assert sorted(names.values()) == sorted(paths._STREAM_KEYS)


def test_the_ensemble_does_not_walk_the_x1_waits():
    # at g = 0.5 the ensemble's clock runs at delta; on shared streams its
    # left damped integrals were, path by path, nearly the X1 draws cut at T
    ens = paths.build_ground_ensemble(ModelParams(0.5, 0.5), 20_000)
    x1, _ = jumplaw.sample_damped_sign_pair(0.5, 20_000)
    assert ens.rate == 0.5
    assert np.count_nonzero(np.abs(ens.damped_left - x1) <= 1e-4) < 0.01 * 20_000
