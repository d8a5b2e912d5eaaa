import pytest
from hypothesis import given, strategies as st

from ternrep import (
    InternalError,
    NotRepresentableError,
    compose,
    factorize,
    is_prime,
    represent_binary,
)

from reference import brute_force_binary, jacobi

CONSTANTS = (2, 3, 7)
ODD_PRIMES_5K = [p for p in range(3, 5000) if is_prime(p)]


class TestCornacchiaPrime:
    """Cornacchia's algorithm, run through represent_binary on primes: a
    prime p other than c is its own single factor p^1, so the descent
    returns Cornacchia's (a, b) composed with the identity (1, 0)."""

    def test_pinned_values(self):
        assert represent_binary(11, 7) == (2, 1)
        assert represent_binary(3, 2) == (1, 1)
        assert represent_binary(13, 3) == (1, 2)

    def test_p_equals_c(self):
        for c in CONSTANTS:
            assert represent_binary(c, c) == (0, 1)

    def test_character_failure(self):
        # jacobi(-2, 5) = -1, jacobi(-3, 5) = -1, jacobi(-7, 5) = -1
        for c in CONSTANTS:
            assert jacobi(-c, 5) == -1
            with pytest.raises(NotRepresentableError) as exc:
                represent_binary(5, c)
            assert str(exc.value) == (
                "5 divides 5 to an odd power and -%d is not a square mod 5" % c)

    def test_all_applicable_primes(self):
        for c in CONSTANTS:
            for p in ODD_PRIMES_5K:
                if p != c and jacobi(-c, p) != 1:
                    continue
                a, beta = represent_binary(p, c)
                assert a >= 0 and beta >= 0
                assert a * a + c * beta * beta == p


class TestCompose:
    def test_pinned_values(self):
        assert compose((1, 1), (1, 1), 2) == (1, 2)
        assert compose((0, 1), (0, 1), 7) == (7, 0)

    def test_scaling(self):
        assert compose((3, 0), (2, 5), 2) == (6, 15)

    @given(st.sampled_from(CONSTANTS),
           st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
           st.tuples(st.integers(0, 1000), st.integers(0, 1000)))
    def test_represents_product(self, c, u, v):
        a, beta = compose(u, v, c)
        assert a >= 0 and beta >= 0
        lhs = (u[0] ** 2 + c * u[1] ** 2) * (v[0] ** 2 + c * v[1] ** 2)
        assert a * a + c * beta * beta == lhs

    @given(st.sampled_from(CONSTANTS),
           st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
           st.tuples(st.integers(0, 1000), st.integers(0, 1000)))
    def test_branch_choice_is_minimal(self, c, u, v):
        a1, b1 = u
        a2, b2 = v
        branches = sorted((
            (abs(a1 * a2 - c * b1 * b2), abs(a1 * b2 + a2 * b1)),
            (abs(a1 * a2 + c * b1 * b2), abs(a1 * b2 - a2 * b1)),
        ))
        assert compose(u, v, c) == branches[0]


class TestRepresentBinary:
    def test_pinned_values(self):
        assert represent_binary(8, 7) == (1, 1)
        for c in CONSTANTS:
            assert represent_binary(1, c) == (1, 0)
            assert represent_binary(0, c) == (0, 0)

    def test_not_representable(self):
        with pytest.raises(NotRepresentableError) as exc:
            represent_binary(5, 2)
        assert str(exc.value) == (
            "5 divides 5 to an odd power and -2 is not a square mod 5")
        with pytest.raises(NotRepresentableError) as exc:
            represent_binary(45, 7)
        assert str(exc.value) == (
            "5 divides 45 to an odd power and -7 is not a square mod 5")

    def test_perfect_square_input(self):
        a, beta = represent_binary(9, 2)
        assert a * a + 2 * beta * beta == 9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            represent_binary(-1, 2)

    def test_rejects_unknown_constant(self):
        with pytest.raises(ValueError):
            represent_binary(9, 5)

    def test_two_adic_rules(self):
        # c = 2: any power of 2 alone is representable
        for e in range(1, 8):
            a, beta = represent_binary(2**e, 2)
            assert a * a + 2 * beta * beta == 2**e
        # c = 3: odd powers of 2 are excluded
        for e in (1, 3, 5):
            with pytest.raises(NotRepresentableError):
                represent_binary(2**e, 3)
        assert represent_binary(4, 3) == (2, 0)
        # c = 7: 2^1 excluded, odd powers >= 3 representable
        with pytest.raises(NotRepresentableError):
            represent_binary(2, 7)
        for e in (3, 5, 7):
            a, beta = represent_binary(2**e, 7)
            assert a * a + 7 * beta * beta == 2**e

    def test_matches_oracle_small(self):
        for c in CONSTANTS:
            for n in range(0, 3000):
                oracle = brute_force_binary(c, n)
                try:
                    a, beta = represent_binary(n, c)
                except NotRepresentableError:
                    assert oracle is None
                else:
                    assert oracle is not None
                    assert a * a + c * beta * beta == n

    @given(st.sampled_from(CONSTANTS), st.integers(0, 10**10))
    def test_soundness_or_flagged(self, c, n):
        try:
            a, beta = represent_binary(n, c)
        except NotRepresentableError:
            odd_bad = any(
                p != 2 and p != c and e % 2 == 1 and jacobi(-c, p) != 1
                for p, e in factorize(n or 1)
            )
            two_bad = c in (3, 7) and n > 0 and (
                factorize(n)[0][0] == 2 and factorize(n)[0][1] % 2 == 1
            )
            assert odd_bad or two_bad or (c == 7 and n == 2)
        else:
            assert a >= 0 and beta >= 0
            assert a * a + c * beta * beta == n

    def test_determinism(self):
        def sweep():
            out = []
            for n in range(300):
                try:
                    out.append(represent_binary(n, 2))
                except NotRepresentableError:
                    out.append(None)
            return out

        assert sweep() == sweep()
