import pytest

from orlimark.conjugate import log_power, power_log
from orlimark.functions import random_family
from orlimark.norms import NormContext


@pytest.fixture(scope="session")
def ctx():
    # One shared context so ConjugateCache/OrliczN construction is paid once.
    return NormContext()


@pytest.fixture(scope="session")
def phi1():
    return power_log(1.0)


@pytest.fixture(scope="session")
def phi2():
    return power_log(2.0)


@pytest.fixture(scope="session")
def phi_nu1():
    return log_power(1.0)


@pytest.fixture(scope="session")
def small_corpus():
    """An eight-member slice of the seed-7 families for fast module tests."""
    picks = [("polynomial", (1, 3, 7)), ("gap", (2, 4)), ("rational", (2, 5)), ("trig", (3,))]
    return [(f"{kind}-{n:02d}", random_family(kind, n, 7)) for kind, degrees in picks for n in degrees]
