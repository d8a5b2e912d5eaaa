"""Integer factorization of inputs below arith.PRIMALITY_LIMIT (~3.3e24).

Below 2**16, n is factored by lookups alone: the twos are stripped with bit
operations, then arith.LEAST_FACTOR names the least prime factor of each odd
cofactor.  From 2**16 up, trial division removes every prime below 2**12 at
once, 2 included: one gcd against the product of those primes (about 5,800
bits) gives the part of n they divide, and only that part is walked prime
by prime.  What is left goes to Brent's variant of Pollard rho, with fixed,
documented parameters so results are reproducible.  Trial division stops at
2**12 because rho finds a factor p in about sqrt(p) steps, so past a few
thousand it beats dividing by every prime up to p.
"""

import math
from array import array

from .arith import LEAST_FACTOR, PRIMALITY_LIMIT, TABLE_LIMIT, is_prime
from .errors import ResourceCapError

__all__ = ["RHO_STEP_BUDGET", "factorize", "squarefree_decompose", "ord_p"]

_TRIAL_LIMIT = 2**12

# The primes below _TRIAL_LIMIT, the odd ones read from arith.LEAST_FACTOR
# (entry 0), packed as 16-bit values: 1.1 KB, where a tuple of ints takes
# about 19 KB.
_TRIAL_PRIMES = array(
    "H", [2, *(p for p in range(3, _TRIAL_LIMIT, 2) if not LEAST_FACTOR[p >> 1])]
)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


# _pollard_rho stops with ResourceCapError after this many evaluations of
# f(x) = x^2 + c, counted over every c.  On 24 balanced semiprimes just
# below PRIMALITY_LIMIT, each the product of two random primes in
# (0.9, 1) * isqrt(PRIMALITY_LIMIT), about 2^40.7 (random.Random(40)), rho
# took 406,014 to 3,874,174 steps, 0.12-1.07 s on a 2-vCPU Xeon with
# Python 3.11.  The budget is 4.3 times the largest.  Rho needs about
# sqrt(p) steps for the least prime p of n, and a composite below
# PRIMALITY_LIMIT has p <= 2^40.7, so these semiprimes are the hardest
# inputs factorize accepts.
RHO_STEP_BUDGET = 2**24


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, by Brent's cycle method.

    f(x) = x^2 + c starting from x0 = 2; c starts at 1 and is bumped when a
    cycle degenerates, so the outcome is deterministic.  Raises
    ResourceCapError rather than let the steps pass RHO_STEP_BUDGET.
    """
    steps = 0

    def spend(count):
        nonlocal steps
        steps += count
        if steps > RHO_STEP_BUDGET:
            raise ResourceCapError(
                "factorize: Pollard rho on %d passed its budget of %d steps"
                % (n, RHO_STEP_BUDGET)
            )

    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                chunk = min(128, r - k)
                spend(chunk)
                for _ in range(chunk):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # Backtrack one step at a time.
            g = 1
            while g == 1:
                spend(1)
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def factorize(n: int) -> list:
    """Prime factorization of n >= 1 as [(p, e), ...] with p strictly
    increasing.  factorize(1) == [].

    Raises ResourceCapError when n is at or above PRIMALITY_LIMIT.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1, got %r" % (n,))
    if n >= PRIMALITY_LIMIT:
        raise ResourceCapError("factorize: %d is at or above the proven primality bound" % n)
    if n < TABLE_LIMIT:
        twos = (n & -n).bit_length() - 1
        n >>= twos
        pairs = [(2, twos)] if twos else []
        # each cofactor's least prime factor is above the last p, so the
        # pairs come out in increasing order
        while n > 1:
            p = LEAST_FACTOR[n >> 1] or n
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        return pairs
    factors = {}
    # g is the part of n made of trial primes, each counted once.  Once
    # p * p > g, what is left of g is 1 or a prime.
    g = math.gcd(n, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            factors[p] = ord_p(n, p)
            n //= p ** factors[p]
    if g > 1:
        factors[g] = ord_p(n, g)
        n //= g ** factors[g]
    # Whatever is left has no prime factor below _TRIAL_LIMIT.
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return sorted(factors.items())


def squarefree_decompose(n: int) -> tuple:
    """Write n = s**2 * core with core squarefree; returns (s, core)."""
    s, core = 1, 1
    for p, e in factorize(n):
        s *= p ** (e // 2)
        if e % 2:
            core *= p
    return s, core


def ord_p(n: int, p: int) -> int:
    """Exponent of the prime p in n >= 1."""
    if n < 1:
        raise ValueError("ord_p requires n >= 1, got %r" % (n,))
    if p < 2:
        raise ValueError("ord_p requires p >= 2, got %r" % (p,))
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
