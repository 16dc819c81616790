"""Shared helpers for the test suite.

Randomized tests draw centered rational populations from a seeded
generator so every run exercises the same inputs.  Hypothesis runs
under one derandomized profile with no example database, so each
property test also draws the same examples on every run; its own
``max_examples`` and ``deadline`` still apply.
"""

import random

from hypothesis import settings

from permartingale import random_centered_population

settings.register_profile("pinned", derandomize=True, database=None)
settings.load_profile("pinned")


def centered_pops(n, count, seed):
    """A reproducible list of ``count`` centered populations of size n."""
    rng = random.Random(seed)
    return [random_centered_population(n, rng) for _ in range(count)]


def pop_file(tmp_path, values, name="pop.txt"):
    """Write one value per line and return the path as a string."""
    path = tmp_path / name
    path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
    return str(path)
