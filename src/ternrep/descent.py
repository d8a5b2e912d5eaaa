"""Binary descent: writing integers as a^2 + c*b^2 for c in {2, 3, 7}.

Each of these binary forms has one class per genus, so an integer is
representable exactly when every prime dividing it to an odd power is
locally representable.  Primes are handled by Cornacchia's algorithm and
the parts are folded together with the Brahmagupta composition identity.
"""

import math

from .arith import sqrt_mod_prime
from .errors import InternalError, NonResidueError, NotRepresentableError
from .factor import factorize

__all__ = ["compose", "represent_binary", "BINARY_CONSTANTS"]

BINARY_CONSTANTS = (2, 3, 7)


def _cornacchia(p: int, c: int) -> tuple:
    """Cornacchia's algorithm: (a, b) with a^2 + c*b^2 = p, both >= 0, for
    an odd prime p != c.

    Takes the root r of -c mod p lying in (p/2, p) and runs the Euclidean
    remainder sequence on (p, r) down to the first remainder a <= sqrt(p);
    then (p - a^2) / c is b^2.  Raises NonResidueError when -c is not a
    square mod p, which is exactly when no solution exists.
    """
    r = p - sqrt_mod_prime(-c, p)
    bound = math.isqrt(p)
    prev, cur = p, r
    while cur > bound:
        prev, cur = cur, prev % cur
    a = cur
    rem = p - a * a
    if rem % c != 0:
        raise InternalError("cornacchia residue %d not divisible by %d" % (rem, c))
    b = math.isqrt(rem // c)
    if c * b * b != rem:
        raise InternalError("cornacchia: %d - %d^2 is not %d * square" % (p, a, c))
    return (a, b)


def compose(r1: tuple, r2: tuple, c: int) -> tuple:
    """Combine representations of n1 and n2 into one of n1*n2.

    Both Brahmagupta branches are computed; the result is the branch whose
    (|a|, |b|) pair is lexicographically smallest, with nonnegative entries.
    """
    a1, b1 = r1
    a2, b2 = r2
    branch1 = (abs(a1 * a2 - c * b1 * b2), abs(a1 * b2 + a2 * b1))
    branch2 = (abs(a1 * a2 + c * b1 * b2), abs(a1 * b2 - a2 * b1))
    return min(branch1, branch2)


def _two_part(e: int, c: int) -> list:
    """Representation pieces for 2**e under a^2 + c*b^2, c = 3 or 7, or raise."""
    if c == 3:
        # x^2 + 3y^2 is never 2 mod 4 or 8 mod 16: odd powers of two fail.
        if e % 2:
            raise NotRepresentableError("2 divides n to an odd power (c = 3)")
        return [(1 << (e // 2), 0)]
    # c == 7: 2 itself is not a^2 + 7b^2 (values are never 2 mod 4), but
    # 8 = 1 + 7 is, so any exponent other than exactly 1 works.
    if e == 1:
        raise NotRepresentableError("n = 2 * odd is never a^2 + 7b^2")
    if e % 2 == 0:
        return [(1 << (e // 2), 0)]
    return [(1, 1), (1 << ((e - 3) // 2), 0)]


def represent_binary(n: int, c: int) -> tuple:
    """Some (a, b) with a^2 + c*b^2 = n, both nonnegative; (0, 0) for n = 0.

    Deterministic: primes are processed in increasing order, prime powers
    p^e with e > 1 contribute p^(e//2), odd residuals go through
    Cornacchia's algorithm, and everything is folded with compose.  The
    square part of p^1 would be the identity (1, 0), which compose maps a
    nonnegative acc to itself, so it is left out.

    Raises NotRepresentableError exactly when no representation exists.
    """
    if c not in BINARY_CONSTANTS:
        raise ValueError("unsupported binary constant %r" % (c,))
    if n < 0:
        raise ValueError("represent_binary requires n >= 0, got %r" % (n,))
    if n == 0:
        return (0, 0)
    acc = (1, 0)
    for p, e in factorize(n):
        if p == 2 and c != 2:
            pieces = _two_part(e, c)
        else:
            pieces = [(p ** (e // 2), 0)] if e > 1 else []
            if e % 2 and p == c:  # c = 0^2 + c*1^2; this covers p = 2 when c = 2
                pieces.append((0, 1))
            elif e % 2:
                try:
                    pieces.append(_cornacchia(p, c))
                except NonResidueError:
                    raise NotRepresentableError(
                        "%d divides %d to an odd power and -%d is not a square mod %d"
                        % (p, n, c, p)
                    ) from None
        for piece in pieces:
            acc = compose(acc, piece, c)
    a, b = acc
    if a * a + c * b * b != n:
        raise InternalError("descent assembled %r but it does not evaluate to %d" % (acc, n))
    return acc
