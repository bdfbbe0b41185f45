"""Acceptance criteria: every group of the acceptance battery at its tolerance.

The groups are the ones ``rabizeta report`` renders, defined once in
``rabizeta.cli.AcceptanceBattery``.  Each test runs one group (the
``zeta-limit`` group one variant at a time) at the full
sample size (1e5) and the package's fixed default seed, prints one
PASS/FAIL line per check, and holds the group to its runtime budget; run
with ``pytest tests/test_acceptance.py -v -s`` for the full log.
"""

import ast
import time
from pathlib import Path

import pytest

from rabizeta.cli import AcceptanceBattery
from rabizeta.model import ModelParams
from rabizeta.paths import DEFAULT_SEED

# Seconds per group, including a shared ground state or ensemble it builds first.
BUDGETS = {
    "free-spectrum": 1.0,
    "delta0-shift": 5.0,
    "zeta-g0": 5.0,
    "zeta-limit": 120.0,
    "level-limit": 60.0,
    "fk": 300.0,
    "x1": 60.0,
    "pull-through": 5.0,
    "parity": 10.0,
    "kernels": 180.0,
}


@pytest.fixture(scope="module")
def battery():
    return AcceptanceBattery(DEFAULT_SEED)


def _hold(label, rows, started, budget):
    elapsed = time.monotonic() - started
    for check, anchor, measured, threshold, status in rows:
        print(f"{status} {check}: {anchor} (measured {measured:.3g}, threshold {threshold:.3g})")
    print(f"{label}: {elapsed:.2f} s / budget {budget:.0f} s")
    assert rows and all(row[-1] == "PASS" for row in rows), [r for r in rows if r[-1] != "PASS"]
    assert elapsed < budget, f"{label} exceeded its runtime budget"


@pytest.mark.parametrize("group", [g for g in AcceptanceBattery.GROUPS if g != "zeta-limit"])
def test_group(battery, group):
    started = time.monotonic()
    _hold(group, battery.run(group), started, BUDGETS[group])


@pytest.mark.parametrize("variant,eps", AcceptanceBattery.ZETA_LIMIT_CASES)
def test_criterion_04_zeta_limit_monotone(battery, variant, eps):
    # the zeta-limit group one row at a time, each row under the group's budget
    started = time.monotonic()
    _hold(f"zeta-limit/{variant}", [battery.zeta_limit_row(variant, eps)], started,
          BUDGETS["zeta-limit"])


def test_parity_row_is_certified_from_brackets(battery):
    # the brackets separate the odd ground level from the even one up to g = 3;
    # at g = 4 the two lie within delta*exp(-2 g^2) and the row must fail
    for g, status in ((0.5, "PASS"), (1.0, "PASS"), (2.0, "PASS"), (3.0, "PASS"),
                      (4.0, "FAIL")):
        check, _, gap, threshold, mark = battery.parity_row(ModelParams(0.5, g))
        assert (check, threshold, mark) == ("parity", 0.0, status)
        assert (gap > 0) == (status == "PASS"), (g, gap)


def test_battery_is_single():
    # one budget per group, and no check body here: estimators (*_fk) and
    # oracles (*_ed) are reached only through the battery
    assert list(BUDGETS) == list(AcceptanceBattery.GROUPS)
    tree = ast.parse(Path(__file__).read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {name for name in names if name.endswith(("_fk", "_ed"))}
