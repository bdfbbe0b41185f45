"""Source guards: ``rabizeta.paths`` makes every random generator, draws every wait
and alone reads the ensemble's jump format.

Every sampler draws through ``paths._seed_streams``, so one rule decides
which stream every sample comes from.  A module that built its own generator
or split its own samples into streams would bypass that rule.  Every Poisson
path is walked by ``paths._sweep``, one exponential wait at a time, so the
X1 law that tests certify is the law of every path estimate; a module that
drew its own waits or Poisson counts would be a second sampler.  The
ensemble stores both sides of a path as distances from 0; a module that
read those arrays would be a second owner of that format.
"""

import ast
import re
from pathlib import Path

import rabizeta

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
