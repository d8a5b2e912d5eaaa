import math
import random

import pytest
from hypothesis import given, strategies as st

from ternrep import (
    NonCoprimeModuliError,
    NonResidueError,
    NotInvertibleError,
    PRIMALITY_LIMIT,
    crt,
    inv_mod,
    is_prime,
    sqrt_mod_prime,
)
from ternrep import arith

from reference import jacobi


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def strong_probable_prime(n, base):
    """Whether odd n > 2 passes one Miller-Rabin round to base."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(base, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


PRIMES_10K = [p for p, f in enumerate(sieve(10000)) if f]
ODD_PRIMES_10K = PRIMES_10K[1:]


class TestJacobi:
    def test_pinned_values(self):
        assert jacobi(1, 9) == 1
        assert jacobi(2, 7) == 1
        assert jacobi(-1, 5) == 1
        assert jacobi(2, 3) == -1

    def test_unit_denominator(self):
        assert jacobi(0, 1) == 1
        assert jacobi(-5, 1) == 1

    @pytest.mark.parametrize("n", [0, -3, 2, 10])
    def test_rejects_bad_denominator(self, n):
        with pytest.raises(ValueError):
            jacobi(1, n)

    def test_reciprocity_below_1000(self):
        for a in range(1, 1000, 2):
            for n in range(1, 1000, 2):
                if math.gcd(a, n) != 1:
                    continue
                sign = -1 if (a % 4 == 3 and n % 4 == 3) else 1
                assert jacobi(a, n) * jacobi(n, a) == sign

    def test_matches_legendre_on_primes(self):
        for p in ODD_PRIMES_10K[:150]:
            for a in range(p):
                euler = pow(a, (p - 1) // 2, p)
                expected = -1 if euler == p - 1 else euler
                assert jacobi(a, p) == expected

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
           st.integers(0, 10**6))
    def test_multiplicative_in_numerator(self, a, b, k):
        n = 2 * k + 1
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    @given(st.integers(-10**9, 10**9), st.integers(0, 10**4),
           st.integers(0, 10**4))
    def test_multiplicative_in_denominator(self, a, j, k):
        m, n = 2 * j + 1, 2 * k + 1
        assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)

    @given(st.integers(-10**9, 10**9), st.integers(0, 10**6))
    def test_zero_iff_common_factor(self, a, k):
        n = 2 * k + 1
        assert (jacobi(a, n) == 0) == (math.gcd(a, n) > 1)

    @given(st.integers(-10**9, 10**9), st.integers(0, 10**6))
    def test_period_in_numerator(self, a, k):
        n = 2 * k + 1
        assert jacobi(a, n) == jacobi(a + n, n)


class TestIsPrime:
    def test_pinned_values(self):
        assert is_prime(73)
        assert not is_prime(1)
        assert not is_prime(91)

    def test_agrees_with_sieve_to_one_million(self):
        # Crosses 2**16, where is_prime turns from its table to Miller-Rabin.
        flags = sieve(10**6)
        assert all(is_prime(n) == bool(flags[n]) for n in range(10**6 + 1))

    def test_nonpositive(self):
        assert not is_prime(0)
        assert not is_prime(-7)
        # a negative n must never index the table from its end
        assert not any(is_prime(n) for n in range(-2**16, 1))

    def test_table_edges(self):
        assert is_prime(65521)  # the largest prime below 2**16
        assert not is_prime(65536)
        assert is_prime(65537)
        for n in (-1, 1, True):
            assert is_prime(n) is False

    def test_least_factor_table(self):
        # byte n >> 1 is 0 for 1 and every odd prime, else the least prime
        # factor of n, which is below 2**8
        flags = sieve(2**16)
        table = arith.LEAST_FACTOR
        assert arith.TABLE_LIMIT == 2**16 and len(table) == 2**15
        for n in range(1, 2**16, 2):
            if n == 1 or flags[n]:
                assert table[n >> 1] == 0
            else:
                d = next(d for d in range(3, n, 2) if n % d == 0)
                assert table[n >> 1] == d < 256

    def test_larger_values(self):
        assert is_prime(2**31 - 1)
        assert not is_prime((2**31 - 1) * (2**13 - 1))
        assert is_prime(67280421310721)  # factor of 2^64 + 1
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7

    def test_out_of_supported_range(self):
        with pytest.raises(ValueError):
            is_prime(2**128 + 1)

    def test_strong_pseudoprimes_at_the_tier_bounds(self):
        # Each bound of a witness tier is the least strong pseudoprime to its
        # bases; the (31, 73) tier, exact below 9,080,191, covers 1,373,653,
        # the least one to 2, 3, and the (2, 7, 61) tier, exact below
        # 4,759,123,141 (Jaeschke 1993), covers 25,326,001 and 3,215,031,751,
        # the least ones to 2, 3, 5 and to 2, 3, 5, 7
        for n, bases in ((1373653, (2, 3)), (9080191, (31, 73)),
                         (25326001, (2, 3, 5)), (3215031751, (2, 3, 5, 7)),
                         (4759123141, (2, 7, 61))):
            assert all(strong_probable_prime(n, base) for base in bases)
            assert not is_prime(n)
        assert 48781 * 97561 == 4759123141

    def test_every_tier_lies_above_the_table(self):
        # is_prime answers every n < TABLE_LIMIT from LEAST_FACTOR, so a
        # tier bounded below it would never be read
        bounds = [bound for bound, _ in arith._MR_TIERS]
        assert bounds == sorted(bounds)
        assert bounds[0] >= arith.TABLE_LIMIT

    def test_each_tier_uses_fewer_bases_than_the_next(self):
        # a tier with as many bases as the next one up costs as much per n
        # as that one, which is exact on its range too, so it gains nothing
        counts = [len(bases) for _, bases in arith._MR_TIERS]
        assert all(a < b for a, b in zip(counts, counts[1:])), counts

    @pytest.mark.parametrize("bound", [1373653, 9080191, 25326001, 3215031751,
                                       4759123141])
    def test_agrees_with_trial_division_around_the_tier_bounds(self, bound):
        primes = [p for p, f in enumerate(sieve(math.isqrt(bound + 3000))) if f]
        for n in range(bound - 3000, bound + 3001):
            prime = all(n % p for p in primes if p * p <= n)
            assert is_prime(n) == prime, n


class TestSqrtModPrime:
    def test_pinned_values(self):
        assert sqrt_mod_prime(2, 7) == 3
        assert sqrt_mod_prime(70, 73) == 17
        assert sqrt_mod_prime(0, 13) == 0

    def test_non_residue(self):
        with pytest.raises(NonResidueError):
            sqrt_mod_prime(2, 5)

    def test_all_residues_small_primes(self):
        for p in ODD_PRIMES_10K:
            if p >= 1500:
                break
            for a in range(p):
                if jacobi(a, p) == -1:
                    with pytest.raises(NonResidueError):
                        sqrt_mod_prime(a, p)
                    continue
                r = sqrt_mod_prime(a, p)
                assert 0 <= r <= (p - 1) // 2
                assert r * r % p == a

    @given(st.sampled_from(ODD_PRIMES_10K), st.integers(0, 10**9))
    def test_roundtrip_and_canonical(self, p, x):
        a = x * x % p
        r = sqrt_mod_prime(a, p)
        assert r * r % p == a
        assert 0 <= r <= (p - 1) // 2

    def test_all_congruence_classes_of_p(self):
        # One prime from each class of p - 1 = 2^s * q that Tonelli-Shanks
        # treats differently: s = 1 (3 mod 4), s = 2 (5 mod 8), s >= 3 (1 mod 8).
        for p in (9803, 9781, 9769):
            assert is_prime(p)
            for x in range(1, 200):
                a = x * x % p
                r = sqrt_mod_prime(a, p)
                assert r * r % p == a

    def test_large_primes(self):
        # seeded 32- to 81-bit primes, a third of them 1 mod 2^20 so that
        # Tonelli-Shanks takes many passes; residues and non-residues alike
        rng = random.Random(17)
        primes = []
        while len(primes) < 60:
            bits = rng.randint(32, 81)
            p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            if len(primes) % 3 == 0:
                p -= p % (1 << 20) - 1
            if p < PRIMALITY_LIMIT and is_prime(p):
                primes.append(p)
        assert {p % 8 for p in primes} == {1, 3, 5, 7}
        for p in primes:
            for _ in range(20):
                x = rng.randrange(1, p)
                for a in (x * x % p, rng.randrange(1, p)):
                    if jacobi(a, p) == -1:
                        with pytest.raises(NonResidueError):
                            sqrt_mod_prime(a, p)
                        continue
                    r = sqrt_mod_prime(a, p)
                    assert 0 <= r <= (p - 1) // 2
                    assert r * r % p == a

    def test_odd_composite_moduli_end(self):
        # every call returns a root, raises NonResidueError for an a that is
        # no square mod n, or raises ValueError for the composite modulus
        outcomes = set()
        for n in range(9, 200, 2):
            if is_prime(n):
                continue
            squares = {x * x % n for x in range(n)}
            for a in range(n):
                try:
                    r = sqrt_mod_prime(a, n)
                except NonResidueError:
                    assert a not in squares
                    outcomes.add("non-residue")
                except ValueError:
                    outcomes.add("composite")
                else:
                    assert 0 <= r <= (n - 1) // 2
                    assert r * r % n == a
                    outcomes.add("root")
        assert sqrt_mod_prime(1, 9) == 1
        assert outcomes == {"root", "non-residue", "composite"}


class TestInvMod:
    def test_pinned_values(self):
        assert inv_mod(2, 7) == 4
        assert inv_mod(146, 3) == 2
        assert inv_mod(5, 1) == 0

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            inv_mod(6, 9)
        with pytest.raises(NotInvertibleError):
            inv_mod(0, 5)

    def test_exhaustive_small(self):
        for n in range(1, 200):
            for a in range(1, n):
                if math.gcd(a, n) != 1:
                    continue
                x = inv_mod(a, n)
                assert 0 <= x < n
                assert a * x % n == 1

    @given(st.integers(-10**12, 10**12), st.integers(2, 10**4))
    def test_roundtrip(self, a, n):
        if math.gcd(a, n) != 1:
            with pytest.raises(NotInvertibleError):
                inv_mod(a, n)
        else:
            assert a * inv_mod(a, n) % n == 1


class TestCrt:
    def test_pinned_values(self):
        assert crt([(1, 2), (2, 3)]) == 5
        assert crt([(0, 1)]) == 0
        assert crt([(3, 5), (4, 7)]) == 18

    def test_empty(self):
        assert crt([]) == 0

    def test_non_coprime(self):
        with pytest.raises(NonCoprimeModuliError):
            crt([(1, 6), (2, 4)])

    @given(st.lists(st.tuples(st.integers(-100, 100), st.integers(1, 50)),
                    max_size=5))
    def test_solution_hits_every_residue(self, pairs):
        mods = [m for _, m in pairs]
        for i, m in enumerate(mods):
            for other in mods[i + 1:]:
                if math.gcd(m, other) != 1:
                    return
        x = crt(pairs)
        total = math.prod(mods) if mods else 1
        assert 0 <= x < total
        for r, m in pairs:
            assert x % m == r % m
