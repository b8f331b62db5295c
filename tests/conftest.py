import pytest

from reslat import (
    ChainFlags,
    enumerate_chains,
    generalized_rotation,
    godel,
    identity_nucleus,
    lukasiewicz,
    trivial,
    two,
    vs_a,
    vs_b,
    vs_c,
    vs_formation,
)

from oracles import naive_chains


@pytest.fixture(scope="session")
def vs():
    return vs_formation()


@pytest.fixture(scope="session")
def small_chain_pool():
    """Every integral residuated chain of size <= 4, plus the VS chains and a
    couple of rotations; the shared corpus for property tests."""
    pool = []
    for n in (1, 2, 3, 4):
        pool.extend(enumerate_chains(n, ChainFlags(integral=True)))
    pool += [vs_a(), vs_b(), vs_c()]
    pool += [generalized_rotation(identity_nucleus(a), 2) for a in (two(), godel(3), lukasiewicz(3))]
    return pool


@pytest.fixture(scope="session")
def builtin_chains():
    return [trivial(), two(), lukasiewicz(3), lukasiewicz(4), godel(3), godel(4), vs_a(), vs_b(), vs_c()]


@pytest.fixture(scope="session")
def naive_ci4():
    return set(naive_chains(4, integral=True, commutative=True))


@pytest.fixture(scope="session")
def naive_i4():
    return set(naive_chains(4, integral=True, commutative=False))


@pytest.fixture(scope="session")
def naive_tables(naive_ci4, naive_i4):
    """``naive_chains`` output for every size <= 4 and every combination of
    the integral and commutative flags, keyed ``(n, integral, commutative)``."""
    out = {(4, True, True): naive_ci4, (4, True, False): naive_i4}
    for n in (1, 2, 3, 4):
        for integral in (False, True):
            for commutative in (False, True):
                if (n, integral, commutative) not in out:
                    out[n, integral, commutative] = set(naive_chains(n, integral=integral, commutative=commutative))
    return out
