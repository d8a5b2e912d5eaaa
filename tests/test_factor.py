import io
import math

import pytest
from hypothesis import given, strategies as st

from ternrep import (
    PRIMALITY_LIMIT,
    ResourceCapError,
    factor,
    factorize,
    is_prime,
    ord_p,
    squarefree_decompose,
)
from ternrep.cli import dispatch


def trial_division(n):
    """Prime factorization of n >= 1 by dividing by every d up to sqrt(n)."""
    pairs = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return pairs


class TestFactorize:
    def test_pinned_values(self):
        assert factorize(1) == []
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(9991) == [(97, 1), (103, 1)]
        # both sides of 2**16, where factorize turns from the least-factor
        # table to the gcd against the trial primes
        assert factorize(64507) == [(251, 1), (257, 1)]
        assert factorize(65025) == [(3, 2), (5, 2), (17, 2)]
        assert factorize(65521) == [(65521, 1)]
        assert factorize(65535) == [(3, 1), (5, 1), (17, 1), (257, 1)]
        assert factorize(65536) == [(2, 16)]
        assert factorize(65537) == [(65537, 1)]
        assert factorize(True) == []
        with pytest.raises(ValueError):
            factorize(-7)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_reconstruction_exhaustive(self):
        # every n below 2**17, so both sides of the table edge at 2**16
        for n in range(1, 2**17):
            assert factorize(n) == trial_division(n)

    def test_primality_of_listed_primes(self):
        for n in range(2, 20000):
            assert all(is_prime(p) for p, _ in factorize(n))

    @given(st.integers(1, 2**40))
    def test_reconstruction_random(self, n):
        pairs = factorize(n)
        assert math.prod(p**e for p, e in pairs) == n
        assert all(is_prime(p) for p, _ in pairs)

    def test_beyond_trial_division(self):
        # both factors exceed the trial-division bound, forcing the rho stage
        n = 1000003 * 1000033
        assert factorize(n) == [(1000003, 1), (1000033, 1)]
        square = 1000003 * 1000003
        assert factorize(square) == [(1000003, 2)]

    # Each n is built from known primes, so its factorization is known by
    # construction.  Trial division stops at 2**12; these shapes leave
    # Pollard rho and the perfect-square check to finish: prime powers and
    # products of p, q in (2**12, 10**6), Carmichael numbers (the last has
    # every factor above 2**12), and the bigsquare shape 4^k * s^2 * c * P
    # with a prime s above 10**6.
    @pytest.mark.parametrize("pairs", [
        [(4099, 2)], [(65537, 3)], [(999983, 4)], [(4099, 5)], [(4099, 6)],
        [(4099, 1), (999983, 1)],
        [(65537, 2), (524287, 1)],
        [(4099, 3), (999983, 2)],
        [(3, 1), (11, 1), (17, 1)],
        [(5, 1), (13, 1), (17, 1)],
        [(7, 1), (13, 1), (19, 1)],
        [(5, 1), (17, 1), (29, 1)],
        [(7, 1), (13, 1), (31, 1)],
        [(7, 1), (23, 1), (41, 1)],
        [(7, 1), (19, 1), (67, 1)],
        [(4261, 1), (8521, 1), (12781, 1)],
        [(2, 4), (3, 1), (5, 1), (7, 1), (1000003, 2), (3999971, 1)],
        [(2, 2), (11, 1), (1000003, 1), (1000033, 2)],
        [(3, 1), (1000003, 2), (2147483647, 1)],
        [(2, 4), (5, 1), (13, 1), (1000033, 2)],
    ])
    def test_rho_regime(self, pairs):
        assert all(is_prime(p) for p, _ in pairs)
        assert factorize(math.prod(p**e for p, e in pairs)) == pairs

    def test_trial_primes(self):
        expected = [p for p in range(2, 2**12)
                    if all(p % d for d in range(2, math.isqrt(p) + 1))]
        assert list(factor._TRIAL_PRIMES) == expected
        assert factor._TRIAL_PRODUCT == math.prod(expected)

    # Trial division walks gcd(n, product of the trial primes) only while
    # p * p <= g, so each of these ends the walk with a prime still in g.
    @pytest.mark.parametrize("pairs", [
        [(4093, 1)],
        [(2, 1), (4093, 1)],
        [(3, 1), (4091, 1), (4093, 1)],
        [(4093, 2), (4099, 1)],
        [(7, 1), (4093, 1), (1000003, 2)],
    ])
    def test_prime_left_in_gcd(self, pairs):
        assert factorize(math.prod(p**e for p, e in pairs)) == pairs

    def test_budget_cap(self):
        with pytest.raises(ResourceCapError):
            factorize(PRIMALITY_LIMIT)

    def test_rho_step_budget(self, monkeypatch):
        # rho splits 1000003 * 1000033 after exactly 1022 steps of f
        n = 1000003 * 1000033
        monkeypatch.setattr(factor, "RHO_STEP_BUDGET", 1022)
        assert factorize(n) == [(1000003, 1), (1000033, 1)]
        monkeypatch.setattr(factor, "RHO_STEP_BUDGET", 1021)
        with pytest.raises(ResourceCapError, match="budget of 1021 steps"):
            factorize(n)
        # n = 3 (mod 8) is eligible for x2+2y2+2z2, and reducing it factors it
        out, err = io.StringIO(), io.StringIO()
        code = dispatch(["represent", "--form", "x2+2y2+2z2", "--m", str(n)], out, err)
        assert (code, out.getvalue()) == (5, "")
        assert err.getvalue().startswith("resource cap: factorize: Pollard rho on %d" % n)


class TestSquarefreeDecompose:
    def test_pinned_values(self):
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(45) == (3, 5)

    def test_decomposition_exhaustive(self):
        for n in range(1, 20001):
            s, core = squarefree_decompose(n)
            assert s * s * core == n
            assert all(e == 1 for _, e in factorize(core))

    @given(st.integers(1, 10**9))
    def test_decomposition_random(self, n):
        s, core = squarefree_decompose(n)
        assert s * s * core == n
        assert all(e == 1 for _, e in factorize(core))


class TestOrdP:
    def test_pinned_values(self):
        assert ord_p(98, 7) == 2
        assert ord_p(5, 7) == 0
        assert ord_p(63, 3) == 2

    @given(st.integers(1, 10**12), st.sampled_from([2, 3, 5, 7, 11, 13]))
    def test_definition(self, n, p):
        e = ord_p(n, p)
        assert n % p**e == 0
        assert n % p**(e + 1) != 0
