"""Seeded input generation for the ternrep benchmark.

Every generator is an endless stream drawn from ``random.Random(seed)``,
so the same seed always yields the same inputs in the same order.  The
arithmetic here (eligibility rules, primality, squarefree tests) is the
benchmark's own and shares no code with ternrep, so the inputs and the
output checks do not depend on the program under test.

Streams are built in rounds that visit every stratum (form, bit size,
window position) once in a fixed order, so a run that stops part-way
through a round still has a balanced mix.
"""

import math
import random

# Coefficients (c1, c2, c3) of c1*x^2 + c2*y^2 + c3*z^2, by CLI name.
FORMS = {
    "x2+2y2+2z2": (1, 2, 2),
    "x2+y2+2z2": (1, 1, 2),
    "x2+y2+3z2": (1, 1, 3),
    "x2+y2+7z2": (1, 1, 7),
}
FORM_NAMES = tuple(FORMS)
EXACT_FORMS = ("x2+2y2+2z2", "x2+y2+2z2")

# ternrep trial-divides up to this bound before it switches to Pollard rho.
TRIAL_LIMIT = 10**6

# Bit sizes of witness-large, visited in this order inside a round so that
# every run of four consecutive inputs holds one of each size.
LARGE_BITS = (32, 26, 30, 28)
BIGSQUARE_BITS = (72, 80)
SCAN_HI = 20000
SCAN_STRATA = 8
# Stratum order inside a round: every prefix is spread over the range.
_STRATUM_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)

# Deterministic Miller-Rabin: these bases are exact below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def evaluate(form: str, rep) -> int:
    return sum(c * v * v for c, v in zip(FORMS[form], rep))


def _strip_fours(m: int) -> int:
    while m % 4 == 0:
        m //= 4
    return m


def _ord(m: int, p: int) -> int:
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def verdict(form: str, m: int) -> str:
    """The closed-form verdict for m >= 1, as ternrep's CLI spells it.

    x2+2y2+2z2 misses exactly 4^k(8l+7) and x2+y2+2z2 exactly 4^k(16l+14);
    the two other forms cover 4^k(8l+1) with ord_3 even and 4^k(8l+5)
    with ord_7 even.
    """
    stripped = _strip_fours(m)
    if form == "x2+2y2+2z2":
        return "obstructed" if stripped % 8 == 7 else "eligible"
    if form == "x2+y2+2z2":
        return "obstructed" if stripped % 16 == 14 else "eligible"
    if form == "x2+y2+3z2":
        covered = stripped % 8 == 1 and _ord(m, 3) % 2 == 0
    else:
        covered = stripped % 8 == 5 and _ord(m, 7) % 2 == 0
    return "eligible" if covered else "outside-covered-cases"


def eligible(form: str, m: int) -> bool:
    return verdict(form, m) == "eligible"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= 3 * 10**24:
        raise ValueError("is_prime: %d is beyond the proven base set" % n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def small_factors(n: int) -> list:
    """Prime factorization of a small n (a few million) by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if p < hi and is_prime(p):
            return p


# witness-large: the Theta(sqrt m) lattice scan in enumerate_point takes
# over 90% of each witness, so a faster lattice step shows here.  Even bit
# sizes 26 to 32 in equal shares, with equal shares of the four forms; at
# 32 to 38 bits a run of a few hundred witnesses is too few for a p50 and a
# p90 that repeat across seeds.
def witness_large(seed: int):
    """Endless (form, m) stream: eligible m uniform among b-bit integers."""
    rng = random.Random(seed)
    while True:
        for j in range(16):
            bits = LARGE_BITS[j % 4]
            form = FORM_NAMES[(j // 4 + j) % 4]
            while True:
                m = rng.randrange(1 << (bits - 1), 1 << bits)
                if eligible(form, m):
                    break
            yield form, m


def _bigsquare_core(rng: random.Random, form: str, big_prime: bool) -> int:
    """A squarefree core of a few million that is eligible for the form.

    With big_prime it is c * P for a prime P above TRIAL_LIMIT, so ternrep
    factors it through Pollard rho; otherwise every prime factor lies below
    TRIAL_LIMIT and trial division alone finishes the job.
    """
    while True:
        if big_prime:
            core = rng.choice((1, 2, 3, 5, 6, 7)) * _random_prime(
                rng, TRIAL_LIMIT + 1, 4 * TRIAL_LIMIT)
        else:
            core = rng.randrange(2 * TRIAL_LIMIT, 8 * TRIAL_LIMIT)
        factors = small_factors(core)
        if any(e > 1 for _, e in factors) or not eligible(form, core):
            continue
        if big_prime == (factors[-1][0] > TRIAL_LIMIT):
            return core


# witness-bigsquare: m = 4^k * s^2 * core with a prime s above TRIAL_LIMIT,
# so factoring m in reduce_to_core (trial division to TRIAL_LIMIT, then
# rho when the core carries a big prime) dominates and the lattice step is
# small.  m stays below 2^80, inside the proven Miller-Rabin range.
def bigsquare_parts(seed: int):
    """Endless (form, k, s, core) stream with 4^k * s^2 * core of 72 to 80
    bits, in equal shares of form and of cores with and without a prime
    above TRIAL_LIMIT."""
    rng = random.Random(seed)
    lo_bits, hi_bits = BIGSQUARE_BITS
    while True:
        for j in range(8):
            form = FORM_NAMES[j % 4]
            core = _bigsquare_core(rng, form, big_prime=j >= 4)
            while True:
                bits = rng.randint(lo_bits, hi_bits)
                k = rng.randrange(3)
                base = (1 << (2 * k)) * core
                s_lo = math.isqrt(((1 << (bits - 1)) - 1) // base) + 1
                s_hi = math.isqrt(((1 << bits) - 1) // base)
                s = _random_prime(rng, s_lo, s_hi + 1)
                if core % s:
                    break
            yield form, k, s, core


def witness_bigsquare(seed: int):
    """Endless (form, m) stream of the bigsquare_parts products."""
    for form, k, s, core in bigsquare_parts(seed):
        yield form, (1 << (2 * k)) * s * s * core


def scan_windows(seed: int, width: int):
    """Endless (form, lo, hi) stream of windows inside [1, SCAN_HI]."""
    rng = random.Random(seed)
    stride = (SCAN_HI - width + 1) // SCAN_STRATA
    while True:
        for stratum in _STRATUM_ORDER:
            for form in FORM_NAMES:
                lo = 1 + stratum * stride + rng.randrange(stride)
                yield form, lo, lo + width - 1
