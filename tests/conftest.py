from itertools import product

import pytest

from cyclomap import decompose, make_field, multiplicative_group, unit_circle
from cyclomap.gf import divisors
from cyclomap.search import SplitMix64


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f13():
    return make_field(13)


@pytest.fixture(scope="session")
def f17():
    return make_field(17)


@pytest.fixture(scope="session")
def f25():
    return make_field(5, 2)


@pytest.fixture(scope="session")
def f64():
    return make_field(2, 6)


@pytest.fixture(scope="session")
def small_branch_maps():
    """(decomp, log_scales, exponents) for every index of F_q*, q in 5, 7,
    9 and 13, and of the order-6 unit circle in GF(5^2).

    Each branch takes a log in −1..N and an exponent in −1..N or 2N+1, so
    r = 0, N, 2N+1 and −1 all occur.  An index whose lattice of such maps
    has at most 2000 of them is walked whole; any other gets 1000 seeded
    draws from it.
    """
    rng = SplitMix64(2026)
    groups = [multiplicative_group(make_field(p, n))
              for p, n in ((5, 1), (7, 1), (3, 2), (13, 1))]
    groups.append(unit_circle(make_field(5, 2), 5))
    out = []
    for ctx in groups:
        N = ctx.order
        branch = list(product(range(-1, N + 1), (*range(-1, N + 1), 2 * N + 1)))
        for ell in divisors(N):
            dec = decompose(ctx, ell)
            if len(branch) ** ell <= 2000:
                maps = product(branch, repeat=ell)
            else:
                maps = ([branch[rng.randrange(len(branch))] for _ in range(ell)]
                        for _ in range(1000))
            for bs in maps:
                out.append((dec, tuple(la for la, _ in bs), tuple(r for _, r in bs)))
    return out
