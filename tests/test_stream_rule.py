"""Source guard: ``rabizeta.paths`` is the only module that makes random generators.

Every sampler draws through ``paths._seed_streams``, so one rule decides
which stream every sample comes from.  A module that built its own generator
or split its own samples into streams would bypass that rule.
"""

import re
from pathlib import Path

import rabizeta

PACKAGE = Path(rabizeta.__file__).parent
FORBIDDEN = re.compile(r"\b(SeedSequence|PCG64|default_rng|stream_chunks)\b|\bnp\.random\b")


def test_only_paths_makes_generators():
    offenders = []
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "paths.py":
            continue
        for number, line in enumerate(source.read_text().splitlines(), 1):
            if FORBIDDEN.search(line):
                offenders.append(f"{source.name}:{number}: {line.strip()}")
    assert not offenders, "random generators outside paths.py:\n" + "\n".join(offenders)
