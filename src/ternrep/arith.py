"""Modular arithmetic primitives: deterministic primality, the
least-prime-factor table below 2**16, square roots mod p, inverses, CRT.

The chain takes Legendre symbols only at proven primes p, so its callers
use Euler's criterion, one pow: (a/p) = 1 exactly when a^((p-1)/2) = 1
(mod p).  All functions work on plain Python ints and are pure.
"""

import math

from .errors import NonCoprimeModuliError, NonResidueError, NotInvertibleError

__all__ = ["is_prime", "sqrt_mod_prime", "inv_mod", "crt", "PRIMALITY_LIMIT"]


# Deterministic Miller-Rabin witness sets.  Each entry (bound, bases) is a
# proven result: testing against `bases` is exact for all n < bound.  No
# bound is below TABLE_LIMIT, where is_prime reads LEAST_FACTOR instead, and
# each tier has fewer bases than the next, which is exact on its range too.
_MR_TIERS = (
    (9080191, (31, 73)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

# is_prime is proven exactly for n below this bound (~3.3e24, ~2**81.4).
PRIMALITY_LIMIT = _MR_TIERS[-1][0]

# Least prime factors of the odd numbers below TABLE_LIMIT, one byte each
# (32 KB): byte n >> 1 is the least prime factor of an odd composite n, and
# 0 for 1 and for every odd prime.  An odd composite below 2**16 has a
# factor below 2**8, so a byte holds it.  The odd multiples of p from p*p on
# sit at indices (p*p) >> 1, step p; p runs down, so the least prime writes
# last, and the writes of an odd composite p are all overwritten.
TABLE_LIMIT = 2**16
LEAST_FACTOR = bytearray(TABLE_LIMIT // 2)
for _p in range(math.isqrt(TABLE_LIMIT - 1) | 1, 1, -2):
    _start = (_p * _p) >> 1
    LEAST_FACTOR[_start::_p] = bytes([_p]) * len(range(_start, TABLE_LIMIT // 2, _p))
del _p, _start

_TINY_PRODUCT = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


def is_prime(n: int) -> bool:
    """Exact primality test, deterministic for all n below PRIMALITY_LIMIT.

    Below 2**16 the answer is one lookup in LEAST_FACTOR, built at import.
    From there up, multiples of the primes up to 37 are rejected with one gcd
    against their product, and Miller-Rabin runs with a proven witness set.
    No randomness anywhere.
    """
    if n < TABLE_LIMIT:
        # n > 2 first: a negative n must not index the table
        if n > 2:
            return n & 1 == 1 and LEAST_FACTOR[n >> 1] == 0
        return n == 2
    if math.gcd(n, _TINY_PRODUCT) != 1:
        return False
    if n >= PRIMALITY_LIMIT:
        raise ValueError("is_prime: %d exceeds the deterministic witness range" % n)
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for base in bases:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod_prime(a: int, p: int) -> int:
    """Canonical square root of a mod odd prime p: the root r with
    0 <= r <= (p - 1) // 2.

    Tonelli-Shanks for every odd prime, which settles residuosity itself:
    a^((p-1)/2) = -1 on the first pass raises NonResidueError.  The least
    non-residue, found by direct scan with Euler's criterion, is sought only
    once a pass needs it (never for p = 3 mod 4), so the result is
    deterministic.  Every loop is bounded, so an odd composite p ends too:
    NonResidueError only when a^((p-1)/2) = -1 (mod p), which proves a a
    non-square, otherwise a checked root or ValueError.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("sqrt_mod_prime requires an odd prime modulus, got %r" % (p,))
    a %= p
    if a == 0:
        return 0
    q = p - 1
    m = (q & -q).bit_length() - 1
    q >>= m
    c = None
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    while t != 1:
        # the least i with t^(2^i) = 1; t has order below 2^m unless this
        # is the first pass and a is a non-residue
        t2 = t
        i = 0
        while t2 != 1:
            if i == m - 1:
                if c is None and t2 == p - 1:
                    raise NonResidueError("%d is not a square mod %d" % (a, p))
                raise ValueError("sqrt_mod_prime: %d is not prime" % p)
            t2 = t2 * t2 % p
            i += 1
        if c is None:
            # Euler's criterion: z^((p-1)/2) = 1 exactly for the residues.  On
            # an odd composite p the scan stops by the least prime factor of
            # p at the latest, whose power is not 1.
            z = 2
            while pow(z, p >> 1, p) == 1:
                z += 1
            c = pow(z, q, p)
        bexp = pow(c, 1 << (m - i - 1), p)
        r = r * bexp % p
        c = bexp * bexp % p
        t = t * c % p
        m = i
    if r * r % p != a:
        raise ValueError("sqrt_mod_prime: %d is not prime" % p)
    return min(r, p - r)


def inv_mod(a: int, n: int) -> int:
    """Inverse of a mod n (n >= 1); inv_mod(anything, 1) == 0."""
    if n < 1:
        raise ValueError("inv_mod requires n >= 1, got %r" % (n,))
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotInvertibleError("%d is not invertible mod %d" % (a, n)) from None


def crt(pairs) -> int:
    """Combine congruences x = r_i (mod n_i) with pairwise coprime moduli.

    Returns the unique solution in [0, prod n_i).  An empty sequence gives 0.
    """
    x, n = 0, 1
    for r, ni in pairs:
        if ni < 1:
            raise ValueError("crt modulus must be >= 1, got %r" % (ni,))
        try:
            step = (r - x) * inv_mod(n, ni) % ni
        except NotInvertibleError:
            raise NonCoprimeModuliError("moduli share a factor: %d, %d" % (n, ni)) from None
        x += n * step
        n *= ni
    return x % n
