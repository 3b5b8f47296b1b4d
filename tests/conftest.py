from typing import NamedTuple

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class Decomposition(NamedTuple):
    """One call of np.linalg.svd, eigh or eigvalsh, and whether its input is zero."""

    name: str
    zero: bool


class Decompositions(list):
    """The decompositions made while a test runs, in call order."""

    def of(self, name: str, zero: bool | None = None) -> int:
        """How many calls of name, counting only zero or only nonzero inputs when zero is given."""
        return sum(c.name == name and zero in (None, c.zero) for c in self)


@pytest.fixture
def decompositions(monkeypatch) -> Decompositions:
    """Record every np.linalg.svd, eigh and eigvalsh call from the test's setup on.

    Tests clear() it before the calls they count.
    """
    calls = Decompositions()

    def counted(name, real):
        def call(a, *args, **kwargs):
            calls.append(Decomposition(name, not np.any(a)))
            return real(a, *args, **kwargs)
        return call

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls
