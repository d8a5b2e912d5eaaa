"""The composed form F of the construction and its first point with F = n0.

With delta = delta_factor*q, lam = alpha*q and x' the free coordinate
(x = 2x' in the substituted profiles, x' = x elsewhere), e = lam*x' + b*y
and R = t*e + n0*z, F = rho*R^2 + (e^2 + gamma*n0*y^2) / delta.  So delta*F
is the positive definite form Q(e, y, R) = e^2 + gamma*n0*y^2 +
rho*delta*R^2 on the lattice coordinates (x', y, z), and F = n0 reads
Q = T with T = delta*n0.  composed_values evaluates F, and
enumerate_point finds its first point with F = n0.  Every point lies in
|y| <= isqrt(delta_factor*q // gamma), and one exists (Minkowski's theorem,
proved in cases.py).  The answer is pinned: the least point with y <= 0
under the key (|y|, x, z), the first point of the normative scan order.

Two exact searches return it, in the coordinates (x', y, z).  Up to
SCAN_Y_LIMIT values of |y| a scan walks the completed square, at one
integer square root per |y| and a few additions per candidate.  Above it an integral LLL reduction of Q and a
Fincke-Pohst enumeration of Q <= T visit at most 13 coefficient vectors,
whatever the size of q.  F is integral and F = 0 (mod n0) on the whole
lattice (t makes it vanish, see cases.py), so every nonzero point has
Q >= T, and the box Q <= T holds the zero vector and the shortest vectors
alone: at most 12 of them, the kissing number in dimension 3.
"""

import math

from .cases import CaseProfile
from .errors import InternalError

__all__ = ["SCAN_Y_LIMIT", "composed_values", "enumerate_point"]

# enumerate_point scans when the bound on |y| is at most this, and reduces
# above it.  On 200 seeded frames per bin of the bound (random.Random(2025),
# 2-vCPU Xeon, Python 3.11.7), the scan against the reduction took, in mean
# ms per call, 0.014 and 0.021 at 128-191, 0.019 and 0.022 at 192-223,
# 0.022 and 0.021 at 224-255, where they meet, 0.023 and 0.022 at 256-287,
# 0.035 and 0.024 at 320-383, 0.074 and 0.027 at 512-1023, and 0.312 and
# 0.028 at 2048-4095.  A bound of 256 means q near 2^16 * gamma / delta_factor.
SCAN_Y_LIMIT = 256


def composed_values(profile: CaseProfile, core: int, q: int, t: int, b: int, point) -> tuple:
    """(R, binary part, F) of the composed form at a lattice point (x, y, z):
    R = t*e + n0*z, binary = (e^2 + gamma*n0*y^2) / delta and
    F = rho*R^2 + binary, with e = lam*x' + b*y.

    The binary part is taken as alpha*x'*(e + b*y) / delta_factor + v*y^2
    with v = (b^2 + gamma*n0) / delta, since e^2 = lam*x'*(e + b*y) + b^2*y^2.
    The first quotient is exact for every q and b, because alpha^2 and
    2*alpha are multiples of delta_factor in every profile.  v is exact
    when delta is a divisor of b^2 + gamma*n0, as for the b that solve_bh
    returns; otherwise v alone is rounded down, and witness_problems reads
    only R.  For the substituted profiles x must be even (ValueError
    otherwise).
    """
    x, y, z = point
    if profile.x_substituted:
        if x % 2 != 0:
            raise ValueError("lattice x must be even for profile %s" % profile.id)
        x //= 2
    n0 = profile.n0(core)
    e = profile.alpha * q * x + b * y
    r_val = t * e + n0 * z
    binary = (profile.alpha * x * (e + b * y) // profile.delta_factor
              + (b * b + profile.gamma * n0) // (profile.delta_factor * q) * y * y)
    return r_val, binary, profile.rho * r_val * r_val + binary


def enumerate_point(profile: CaseProfile, core: int, q: int, t: int, b: int) -> tuple:
    """The least lattice point with F(point) = n0 and y <= 0 under the key
    (|y|, x, z): the scan's first point in the order y = 0, -1, 1, -2, 2,
    ..., then x ascending, then z, as F(-point) = F(point).

    It scans when isqrt(delta_factor*q // gamma), the bound on |y|, is at
    most SCAN_Y_LIMIT, and reduces otherwise; both return the same point.
    The x-coordinate is doubled for the substituted profiles.  Requires
    n0 >= 3 (ValueError otherwise); build_witness settles the cores whose
    odd part is 1 without a search.  For the t and b that build_witness
    solves a point exists, so the InternalError for a search without one
    is unreachable from there.
    """
    target = profile.n0(core)
    if target < 3:
        raise ValueError("enumerate_point requires n0 >= 3, got %d" % target)
    if math.isqrt(profile.delta_factor * q // profile.gamma) <= SCAN_Y_LIMIT:
        point = _scan_point(profile, core, q, t, b)
    else:
        point = _reduced_point(profile, core, q, t, b)
    if point is None:
        raise InternalError(
            "no lattice point with F = %d for core %d (profile %s)"
            % (target, core, profile.id)
        )
    x, y, z = point
    return (2 * x if profile.x_substituted else x, y, z)


def _scan_point(profile: CaseProfile, core: int, q: int, t: int, b: int):
    """The first point (x', y, z) of the normative scan, or None.

    The scan visits y = -|y| alone, |y| ascending, and at each |y| works on
    the completed square rho*delta*R^2 + e^2 = budget with
    budget = delta*n0 - gamma*n0*y^2.  x ascends with e over the coset
    b*y + lam*Z inside [-s, s], with s = isqrt(budget), from its least
    member e0 = (s - b*|y|) mod lam - s.  As |R| <= isqrt(n0 / rho) < n0 / 2
    and n0 is odd, the only candidate R is the centred residue of t*e mod
    n0, and z = (R - t*e) / n0 is exact.  The residue r = t*e mod n0 starts
    at t*e0 mod n0 and walks by t*lam with e, and two comparisons reject it
    unless |R| <= isqrt(n0 / rho) before the exact test
    rho*delta*R^2 + e^2 = budget.  Each |y| derives its budget, s, e0 and
    r afresh, and the scan ends where the budget turns negative, at
    |y| = isqrt(delta_factor*q // gamma).

    In T1B every point has |y| odd, and in T2C every point has |y| even
    (CaseProfile.y_parity, proved in cases.py), so there the scan starts at
    |y| = 1 or 0 and steps by 2; elsewhere it visits every |y|.  Skipping
    |y| values without a point keeps the first point.
    """
    target = profile.n0(core)
    r_max = math.isqrt(target // profile.rho)
    r_neg = target - r_max
    gn = profile.gamma * target
    rho_delta = profile.rho * profile.delta_factor * q
    lam = profile.alpha * q
    tl = t * lam % target
    full = profile.delta_factor * q * target
    start, step = (0, 1) if profile.y_parity is None else (profile.y_parity, 2)
    for ay in range(start, math.isqrt(full // gn) + 1, step):
        budget = full - gn * ay * ay
        s = math.isqrt(budget)
        e = (s - b * ay) % lam - s
        r = t * e % target
        while e <= s:
            if r <= r_max or r >= r_neg:
                r_val = r if r <= r_max else r - target
                if rho_delta * r_val * r_val + e * e == budget:
                    return ((e + b * ay) // lam, -ay, (r_val - t * e) // target)
            e += lam
            r += tl
            if r >= target:
                r -= target
    return None


def _reduced_point(profile: CaseProfile, core: int, q: int, t: int, b: int):
    """The least point (x', y, z) under the key (|y|, x', z) among every
    point with Q = T and y <= 0, or None.

    The rows (0, 0, n0), (b, 1, t*b) and (lam, 0, t*lam), in the order z,
    y, x, are the images in (e, y, R) of the z, y and x directions, so the
    reduced basis, kept in coordinates of these rows, gives each point as
    (z, y, x).  In this order LLL makes fewer than half the swaps it makes
    in the order x, y, z.  The enumeration runs over the whole box, which
    holds every point together with its negative: a point with y = 0 comes
    in both signs, and of any other pair the one with y < 0 is kept.  The
    box is small for any q: the reduced basis has Gram-Schmidt norms
    B1 = Q(b1) >= T and B_i >= B_(i-1) / 2, so |c3| <= 2.
    """
    n0 = profile.n0(core)
    lam = profile.alpha * q
    rho_delta = profile.rho * profile.delta_factor * q
    rn, tb, tl = rho_delta * n0, t * b, t * lam
    yx = b * lam + rho_delta * tb * tl
    basis, d, lams = _lll(((rn * n0, rn * tb, rn * tl),
                           (rn * tb, b * b + profile.gamma * n0 + rho_delta * tb * tb, yx),
                           (rn * tl, yx, lam * lam + rho_delta * tl * tl)))
    (z1, y1, x1), (z2, y2, x2), (z3, y3, x3) = basis
    keys = []
    for c1, c2, c3, excess in _fincke_pohst(d, lams, profile.delta_factor * q * n0):
        y = c1 * y1 + c2 * y2 + c3 * y3
        if y <= 0 and not excess:
            keys.append((-y, c1 * x1 + c2 * x2 + c3 * x3, c1 * z1 + c2 * z2 + c3 * z3))
    if not keys:
        return None
    ay, x, z = min(keys)
    return (x, -ay, z)


def _lll(gram):
    """Integral LLL reduction with delta = 3/4 of a positive definite 3x3
    Gram matrix, in exact integers: Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 2.6.7, written out for n = 3.

    Returns (basis, d, lams): the reduced basis as rows of integer
    coordinates in the given one, the Gram determinants d = (d1, d2, d3)
    of its leading sub-bases, and lams = (l21, l31, l32), the integral
    Gram-Schmidt coefficients l_kj = d_j * mu_kj.  Indices are Cohen's,
    from 1, with d0 = 1.  The comments name his steps REDI(k, l) and
    SWAPI(k); SWAPI(k) runs when 4*d_k*d_(k-2) < 3*d_(k-1)^2 - 4*l_k(k-1)^2.
    """
    (g11, g12, g13), (_, g22, g23), (_, _, g33) = gram
    h1, h2, h3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    d1, l21 = g11, g12
    d2 = d1 * g22 - l21 * l21
    l31 = l32 = None  # k_max = 2 until b3 joins
    at_3 = False  # k = 3, else k = 2
    while True:
        if at_3:
            if 2 * abs(l32) > d2:  # REDI(3, 2)
                r = (2 * l32 + d2) // (2 * d2)
                h3 = (h3[0] - r * h2[0], h3[1] - r * h2[1], h3[2] - r * h2[2])
                l32 -= r * d2
                l31 -= r * l21
            if 4 * d3 * d1 >= 3 * d2 * d2 - 4 * l32 * l32:
                break
            h2, h3 = h3, h2  # SWAPI(3), then k = 2
            l21, l31 = l31, l21
            d2 = (d1 * d3 + l32 * l32) // d2
        if 2 * abs(l21) > d1:  # REDI(2, 1)
            r = (2 * l21 + d1) // (2 * d1)
            h2 = (h2[0] - r * h1[0], h2[1] - r * h1[1], h2[2] - r * h1[2])
            l21 -= r * d1
        at_3 = 4 * d2 >= 3 * d1 * d1 - 4 * l21 * l21
        if not at_3:  # SWAPI(2), and k stays 2
            h1, h2 = h2, h1
            big = (d2 + l21 * l21) // d1
            if l31 is not None:
                l31, l32 = l32, (d2 * l31 - l21 * l32) // d1
                l31 = (big * l31 + l21 * l32) // d2
            d1 = big
        elif l31 is None:  # k = 3 > k_max: b3 is still the third given row
            l31 = h1[0] * g13 + h1[1] * g23 + h1[2] * g33
            l32 = d1 * (h2[0] * g13 + h2[1] * g23 + h2[2] * g33) - l31 * l21
            d3 = (d2 * (d1 * g33 - l31 * l31) - l32 * l32) // d1
    if 2 * abs(l31) > d1:  # REDI(3, 1)
        r = (2 * l31 + d1) // (2 * d1)
        h3 = (h3[0] - r * h1[0], h3[1] - r * h1[1], h3[2] - r * h1[2])
        l31 -= r * d1
    return (h1, h2, h3), (d1, d2, d3), (l21, l31, l32)


def _fincke_pohst(d, lams, bound):
    """Every coefficient vector (c1, c2, c3) with Q(c1*b1 + c2*b2 + c3*b3)
    <= bound (Fincke and Pohst, Math. Comp. 44, 1985), each with
    excess = d1*d2*(bound - Q) >= 0, so Q = bound exactly when excess = 0.

    d and lams are _lll's integral Gram-Schmidt data.  With the Gram-Schmidt
    norms d3/d2, d2/d1, d1, d1*d2*Q = d1*d3*c3^2 + u2^2 + d2*u1^2, where
    u2 = c2*d2 + l32*c3 and u1 = c1*d1 + l21*c2 + l31*c3.  So the bounds,
    taken coordinate by coordinate from c3 down, are
    |c3| <= isqrt(bound*d2 // d3); u2^2 <= d1*N2 with
    N2 = bound*d2 - d3*c3^2; and u1^2 <= N1 // d2 with N1 = d1*N2 - u2^2.
    Each range follows from one isqrt, with no rounding.
    """
    d1, d2, d3 = d
    l21, l31, l32 = lams
    top = math.isqrt(bound * d2 // d3)
    for c3 in range(-top, top + 1):
        n2 = bound * d2 - d3 * c3 * c3
        s2, w2 = math.isqrt(d1 * n2), l32 * c3
        for c2 in range(-((w2 + s2) // d2), (s2 - w2) // d2 + 1):
            u2 = c2 * d2 + w2
            n1 = d1 * n2 - u2 * u2
            s1, w1 = math.isqrt(n1 // d2), l21 * c2 + l31 * c3
            for c1 in range(-((w1 + s1) // d1), (s1 - w1) // d1 + 1):
                u1 = c1 * d1 + w1
                yield c1, c2, c3, n1 - d2 * u1 * u1
