"""Integer factorization of inputs below arith.PRIMALITY_LIMIT (~3.3e24).

Trial division by a 2-3-5 wheel up to 2**12, then Brent's variant of
Pollard rho with fixed, documented parameters so results are reproducible.
Trial division stops early because rho finds a factor p in about sqrt(p)
steps, so past a few thousand it beats dividing by every prime up to p.
"""

import math

from .arith import PRIMALITY_LIMIT, is_prime
from .errors import ResourceCapError

__all__ = ["factorize", "squarefree_decompose", "ord_p"]

_TRIAL_LIMIT = 2**12

# Gaps of the 2-3-5 wheel starting at 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, by Brent's cycle method.

    f(x) = x^2 + c starting from x0 = 2; c starts at 1 and is bumped when a
    cycle degenerates, so the outcome is deterministic.
    """
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # Backtrack one step at a time.
            g = 1
            while g == 1:
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
    factors = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 7
    i = 0
    while p <= _TRIAL_LIMIT and p * p <= n:
        if n % p == 0:
            e = 1
            n //= p
            while n % p == 0:
                e += 1
                n //= p
            factors[p] = e
        p += _WHEEL[i]
        i = (i + 1) % 8
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
