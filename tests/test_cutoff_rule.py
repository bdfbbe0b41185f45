"""One cutoff growth rule: every refined cutoff sequence is ``n -> ceil(1.3 n)``.

``model.refine`` owns the cutoff policy: the growth factor and the
``MAX_STATES`` cap.  The behavioural test follows the cutoffs that spectra,
zeta heads and the ground-state oracles actually solve at (a spectrum that
its brackets certify at the start cutoff solves only there); the source
guard keeps the factor and the cap out of every other module's code.
"""

import ast
import math
from pathlib import Path

import pytest

import rabizeta
import rabizeta.model as model
import rabizeta.observables as observables
import rabizeta.zeta as zeta
from rabizeta.errors import ConvergenceError
from rabizeta.model import ModelParams, adaptive_spectrum, turning_point_cutoff

PACKAGE = Path(rabizeta.__file__).parent


def follows_rule(cutoffs) -> bool:
    return all(b == math.ceil(1.3 * a) for a, b in zip(cutoffs, cutoffs[1:]))


def solved_cutoffs(solves, compute) -> list:
    """The cutoffs of the eigensolves of every level ``compute()`` runs, in order."""
    solves.clear()
    compute()
    cutoffs = []
    for dim, k in solves:
        # both chains of one cutoff count once; a Feshbach anchor (k set) is no cutoff
        if k is None and (not cutoffs or cutoffs[-1] != dim - 1):
            cutoffs.append(dim - 1)
    return cutoffs


def test_every_cutoff_sequence_grows_by_the_one_rule(monkeypatch, solves):
    p = ModelParams(0.5, 5.0)
    spec = adaptive_spectrum(p, k=12, rel_tol=1e-9)
    sequences = [[n for n, _ in spec.refinement]]
    with monkeypatch.context() as patch:  # a start too short for its brackets grows
        patch.setattr(model, "turning_point_cutoff", lambda levels, g: 20)
        short = adaptive_spectrum(p, k=12, rel_tol=1e-9)
    grown = [[n for n, _ in short.refinement]]

    spectrum = zeta.adaptive_spectrum

    def recording(*args, **kwargs):
        head = spectrum(*args, **kwargs)
        sequences.append([n for n, _ in head.refinement])
        return head

    monkeypatch.setattr(zeta, "adaptive_spectrum", recording)
    for variant, eps in (("full", 0.0), ("parity+", 0.0), ("asymmetric", 0.25)):
        zeta.zeta_variant_value(ModelParams(0.5, 5.0, eps), 2.0, 1.0, variant, 200)
    assert len(sequences) == 4 and len(grown[0]) >= 2

    for oracle in (lambda: observables.ground_state(p),
                   lambda: observables.partition_ed(p, 2.0),
                   lambda: observables.vacuum_element_ed(p, 1.0)):
        cutoffs = solved_cutoffs(solves, oracle)
        assert cutoffs[0] == turning_point_cutoff(1, p.g)
        grown.append(cutoffs)

    # at g = 5 the x^2 oracle outgrows the ground state's cutoff and solves again
    gs = observables.ground_state(p)
    resolves = solved_cutoffs(solves, lambda: observables.x_square_exponential_ed(gs, 0.5))
    assert resolves
    grown.append([gs.truncation.n_max, *resolves])

    for cutoffs in sequences + grown:
        assert follows_rule(cutoffs), cutoffs
    # the short start, the partition and vacuum bounds at g = 5 and the x^2
    # levels grow; the ground energy's bracket certifies at its start
    assert [len(cutoffs) >= 2 for cutoffs in grown] == [True, False, True, True, True]


# <exp(beta x^2)> at delta = 0.5 from 60-digit ground vectors, the Gauss-Hermite
# sum of each at two cutoffs (N = 170 and 200; 260 and 320) that agree to 20
# digits; and the solves past the ground state's cutoff that certify each
X_SQUARE_REFERENCES = {(1.0, 0.95): (4.3315001393372696e16, 6),
                       (3.0, 0.8): (4.0594913544174409e31, 6)}


@pytest.mark.parametrize("g, beta", [(1.0, 0.95), (3.0, 0.8)])
def test_x_square_refusal_terminates(solves, g, beta):
    # a rule read from the value's changes alone never fired here, and a rule
    # read from the rounded tail refused; the certificate reaches the
    # reference within a few solves on the growth rule
    gs = observables.ground_state(ModelParams(0.5, g))
    reference, most = X_SQUARE_REFERENCES[g, beta]
    value = []
    resolves = solved_cutoffs(
        solves, lambda: value.append(observables.x_square_exponential_ed(gs, beta)))
    assert value[0] == pytest.approx(reference, rel=1e-12)
    assert 1 <= len(resolves) <= most
    assert follows_rule([gs.truncation.n_max, *resolves])


def test_exact_zero_tail_solves_once(solves):
    # at g = 0 the ground vector is e_0, exact with no tail: the stored
    # vector certifies the value, and nothing is solved again
    gs = observables.ground_state(ModelParams(0.5, 0.0))
    value = []
    resolves = solved_cutoffs(
        solves, lambda: value.append(observables.x_square_exponential_ed(gs, 0.8)))
    assert resolves == []
    assert value[0] == pytest.approx(1 / math.sqrt(0.2), rel=1e-14)


def test_start_over_the_cap_solves_nothing(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved at a cutoff over the cap")

    p = ModelParams(0.5, 1.0)
    # two states per level at the start cutoff 28 is 58 states
    monkeypatch.setattr(model, "MAX_STATES", 40)
    monkeypatch.setattr(observables, "eigensolve", no_solve)
    monkeypatch.setattr(model, "eigensolve", no_solve)
    for oracle in (observables.ground_state, lambda q: observables.partition_ed(q, 1.0),
                   lambda q: observables.vacuum_element_ed(q, 1.0),
                   lambda q: adaptive_spectrum(q, k=1)):
        with pytest.raises(ConvergenceError, match="cutoff cap"):
            oracle(p)


def _policy_names(tree: ast.AST) -> list[str]:
    """``MAX_STATES`` references and ``1.3`` literals in code (not strings or comments)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "MAX_STATES":
            found.append(f"{node.lineno}: MAX_STATES")
        elif isinstance(node, ast.Attribute) and node.attr == "MAX_STATES":
            found.append(f"{node.lineno}: .MAX_STATES")
        elif isinstance(node, ast.alias) and "MAX_STATES" in (node.name, node.asname):
            found.append(f"{node.lineno}: import MAX_STATES")
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1.3:
            found.append(f"{node.lineno}: 1.3")
    return found


def test_only_model_holds_the_cutoff_policy():
    offenders = []
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "model.py":
            continue
        offenders += [f"{source.name}:{hit}" for hit in _policy_names(ast.parse(source.read_text()))]
    assert not offenders, "cutoff policy outside model.py:\n" + "\n".join(offenders)
    assert _policy_names(ast.parse((PACKAGE / "model.py").read_text()))
