"""Fixtures shared by the test modules."""

import pytest

import rabizeta.model as model
import rabizeta.observables as observables


@pytest.fixture
def solves(monkeypatch) -> list:
    """``(dim, k)`` of every eigensolve run through ``model`` or ``observables`` from now on.

    ``k`` is None for a solve of every level, and the level count of a
    selected-eigenvalue solve, such as the Feshbach anchor of
    ``model._feshbach_lower``, which has the dimension of the chain it anchors.
    """
    record = []
    solve = model.eigensolve

    def recording(mat, k=None):
        record.append((mat.dim, k))
        return solve(mat, k)

    for module in (model, observables):
        monkeypatch.setattr(module, "eigensolve", recording)
    return record
