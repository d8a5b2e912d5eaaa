import io
import math
import random

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

from reference import brent_rho, trial_division


def seeded_rho_inputs():
    """24 seeded odd composites free of primes below 2**12, as factorize
    hands them to rho: two or three primes, or a prime cube."""
    rng = random.Random(1980)

    def prime(bits):
        while True:
            p = rng.randrange(2**(bits - 1), 2**bits) | 1
            if p > 2**12 and is_prime(p):
                return p

    composites = []
    for _ in range(24):
        shape = rng.randrange(3)
        if shape == 0:
            composites.append(prime(rng.randint(13, 26)) * prime(rng.randint(13, 40)))
        elif shape == 1:
            composites.append(math.prod(prime(rng.randint(13, 20)) for _ in range(3)))
        else:
            composites.append(prime(rng.randint(13, 24)) ** 3)
    return composites


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


class TestRhoStage:
    # Seeded n = small * shape, each prime of the shape drawn from
    # (2**lo, 2**hi) with lo >= 12, so trial division leaves exactly the
    # shape's primes to the rho stage.  Each shape splits in one rho call:
    # the other prime comes out of a division by the first or of the square
    # root, except p**3 * q when rho returns q and leaves p**3 to split.
    @pytest.mark.parametrize("draw, max_calls", [
        pytest.param(lambda prime: prime(12, 14) ** 2 * prime(15, 17), 1, id="s^2*P, s < P"),
        pytest.param(lambda prime: prime(15, 17) ** 2 * prime(12, 14), 1, id="s^2*P, s > P"),
        pytest.param(lambda prime: prime(12, 17) ** 3 * prime(12, 17), 2, id="p^3*q"),
        pytest.param(lambda prime: (prime(12, 17) * prime(12, 17)) ** 2, 1, id="(p*q)^2"),
    ])
    def test_rho_runs_once_per_new_prime(self, monkeypatch, draw, max_calls):
        rho, calls = factor._pollard_rho, []

        def spy(m):
            calls.append(m)
            return rho(m)

        monkeypatch.setattr(factor, "_pollard_rho", spy)
        rng = random.Random(32)

        def prime(lo, hi):
            while True:
                p = rng.randrange(2**lo, 2**hi)
                if is_prime(p):
                    return p

        for _ in range(8):
            small, n = rng.choice((1, 3, 20, 105)), draw(prime)
            calls.clear()
            assert factorize(small * n) == trial_division(small * n)
            assert len(calls) <= min(max_calls, len(trial_division(n)))

    # rho reduces q once per two steps, so each q differs from the one-step
    # loop's only in sign: the same gcds, the same factor and the same step
    # count, hence the same least budget under which rho finishes.
    @pytest.mark.parametrize("n", [
        1000003 * 1000033, 16924771, 16965761, 17515027, *seeded_rho_inputs(),
    ])
    def test_rho_matches_one_step_reference(self, monkeypatch, n):
        d, steps, _, _ = brent_rho(n)
        monkeypatch.setattr(factor, "RHO_STEP_BUDGET", steps)
        assert factor._pollard_rho(n) == d
        monkeypatch.setattr(factor, "RHO_STEP_BUDGET", steps - 1)
        with pytest.raises(ResourceCapError, match="budget of %d steps" % (steps - 1)):
            factor._pollard_rho(n)

    def test_reference_reaches_every_path(self):
        # test_rho_step_budget pins 1022 steps through factorize and the CLI
        assert brent_rho(1000003 * 1000033) == (1000033, 1022, 1, False)
        # a batch's gcd reaches n, and walking back one step splits it
        assert brent_rho(16924771) == (4099, 128, 1, True)
        assert brent_rho(16965761) == (4099, 128, 1, True)
        # walking back with c = 1 reaches n too, so rho restarts with c = 2
        assert brent_rho(17515027) == (4273, 257, 2, True)


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
