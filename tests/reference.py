"""Independent references that the tests check the library against.

None of them runs in the chain, the oracle or the CLI: the chain takes
Legendre symbols at proven primes by Euler's criterion, its descent is
checked here against exhaustive search, its lattice reduction against
Gram-Schmidt over the rationals, its composed form F, which it takes
on the completed square, against the binary coefficients (u, w, v), its
factorizations against trial division, and its Pollard rho, which
reduces once per two steps, against the loop that reduces at every step.
"""

import math
from fractions import Fraction

from ternrep import NotRepresentableError, represent_binary, represented_bits


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; jacobi(a, 1) == 1.

    Returns -1, 0 or 1.  0 exactly when gcd(a, n) > 1.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi requires odd positive n, got %r" % (n,))
    a %= n
    result = 1
    while a != 0:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and (n & 7) in (3, 5):
            result = -result
        # reciprocity flips the sign when both odd numbers are 3 mod 4
        if a & n & 2:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def trial_division(n: int) -> list:
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


def brent_rho(n: int) -> tuple:
    """(factor, steps, c, backtracked) of Brent's rho on composite odd n
    with the parameters of factor._pollard_rho, but one step of
    f(x) = x^2 + c and one reduction of the product q at a time.  steps
    counts every evaluation of f over every c, so it is the least
    RHO_STEP_BUDGET under which _pollard_rho finishes; c is the constant
    that split n, and backtracked says whether the split came from
    walking back one step at a time after a batch's gcd reached n."""
    steps = 0
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                    steps += 1
                g = math.gcd(q, n)
                k += 128
            r *= 2
        backtracked = g == n
        if backtracked:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                steps += 1
        if g != n:
            return g, steps, c, backtracked
        c += 1


def brute_force_binary(c: int, n: int):
    """First (a, b) with a, b >= 0 and a^2 + c*b^2 = n under an a-outer
    ascending scan; None when there is no solution."""
    if n < 0:
        raise ValueError("brute_force_binary requires n >= 0, got %r" % (n,))
    for a in range(math.isqrt(n) + 1):
        rem = n - a * a
        if rem % c == 0:
            b2 = rem // c
            b = math.isqrt(b2)
            if b * b == b2:
                return (a, b)
    return None


def descent_mismatches(limit: int) -> list:
    """(c, n) for each c in (2, 3, 7) and 0 <= n <= limit where the descent
    and the exhaustive oracle disagree on solvability, or the descent
    returns a pair that is negative or does not evaluate to n.

    The oracle side is represented_bits((1, c), limit), which agrees with
    brute_force_binary on solvability; each n is one lookup in its bytes."""
    failures = []
    for c in (2, 3, 7):
        table = represented_bits((1, c), limit).to_bytes(limit // 8 + 1, "little")
        for n in range(limit + 1):
            try:
                a, beta = represent_binary(n, c)
                sound = a >= 0 and beta >= 0 and a * a + c * beta * beta == n
            except NotRepresentableError:
                sound = None
            represented = table[n >> 3] >> (n & 7) & 1 == 1
            if (sound is None) == represented or sound is False:
                failures.append((c, n))
    return failures


def gram_schmidt(gram) -> tuple:
    """(d, lams) of the rows of a positive definite Gram matrix, by
    Gram-Schmidt over Fraction from scratch: d[k-1] = B1*...*Bk, the
    product of the first k squared Gram-Schmidt norms, and lams the
    l_kj = d_j * mu_kj in the order (l21, l31, l32, l41, ...)."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for k in range(n):
        for j in range(k):
            mu[k][j] = (Fraction(gram[k][j]) - sum(mu[j][i] * mu[k][i] * norms[i]
                                                   for i in range(j))) / norms[j]
        norms.append(Fraction(gram[k][k]) - sum(mu[k][i] ** 2 * norms[i] for i in range(k)))
    d = [math.prod(norms[:k + 1]) for k in range(n)]
    lams = [d[j] * mu[k][j] for k in range(n) for j in range(k)]
    return d, lams


def binary_coefficients(profile, core: int, q: int, b: int) -> tuple:
    """(u, w, v) with F's binary part u*x'^2 + w*x'*y + v*y^2 in the free
    lattice coordinate x' (x = 2x' in the substituted profiles), from the
    profile's constants: delta*u = (alpha*q)^2, delta*w = 2*alpha*q*b and
    delta*v = b^2 + gamma*n0 with delta = delta_factor*q."""
    delta = profile.delta_factor * q
    u = profile.alpha * profile.alpha * q * q // delta
    w = 2 * profile.alpha * q * b // delta
    v = (b * b + profile.gamma * profile.n0(core)) // delta
    return u, w, v


def composed_reference(profile, core: int, q: int, t: int, b: int, point) -> tuple:
    """(R, binary part, F) at a lattice point, from binary_coefficients and
    R = alpha*t*q*x' + b*t*y + n0*z: lattice.composed_values by another
    route.  x must be even in the substituted profiles."""
    x, y, z = point
    if profile.x_substituted:
        assert x % 2 == 0
        x //= 2
    u, w, v = binary_coefficients(profile, core, q, b)
    binary = u * x * x + w * x * y + v * y * y
    r_val = profile.alpha * t * q * x + b * t * y + profile.n0(core) * z
    return r_val, binary, profile.rho * r_val * r_val + binary


def det_factor(profile) -> Fraction:
    """rho*alpha^2*gamma/delta_factor^2: F's Gram determinant in lattice
    coordinates is det_factor * n0^3, and a row needs
    36*det_factor < 8*pi^2 for a lattice point with F = n0 to exist
    (the Minkowski argument of the cases module)."""
    return Fraction(profile.rho * profile.alpha ** 2 * profile.gamma,
                    profile.delta_factor ** 2)
