"""Constructive witness pipeline.

For an eligible m the solver reduces to a squarefree core, picks the case
profile, finds the auxiliary prime q, solves the modular parameters t and
(b, h), finds the lattice point with F(point) = target (lattice.py),
descends the binary value n = a^2 + c*beta^2, and assembles a
representation of m.  The Witness records every intermediate so the whole
chain can be re-audited offline.

Search orders are normative: witnesses are bit-reproducible across runs
and job counts.  A geometry-of-numbers volume bound proves that the
lattice point exists, and the pinned order picks one of the O(1) points
that the bound allows.
"""

import math
from collections import namedtuple
from itertools import compress

from .arith import (
    LEAST_FACTOR,
    PRIMALITY_LIMIT,
    TABLE_LIMIT,
    crt,
    inv_mod,
    is_prime,
    sqrt_mod_prime,
)
from .cases import PROFILES, CaseProfile, select_case
from .descent import represent_binary
from .errors import (
    InternalError,
    NonResidueError,
    NotInvertibleError,
    NotRepresentableError,
    ResourceCapError,
)
from .factor import factorize
from .forms import (
    FORM_BY_NAME,
    Eligibility,
    EligibilityVerdict,
    TernaryForm,
    checked_representation,
    eligibility,
    evaluate,
    lift_representation,
    reduce_to_core,
)
from .lattice import composed_values, enumerate_point

__all__ = [
    "Q_CANDIDATE_BUDGET",
    "SMALL_CORE",
    "ORACLE_CASE",
    "CONSTRUCTION_KEYS",
    "WITNESS_KEYS",
    "Construction",
    "Witness",
    "witness_fields",
    "verdict_fields",
    "witness_from_fields",
    "construction_frame",
    "find_q",
    "solve_t",
    "solve_bh",
    "build_witness",
    "verify_witness",
    "witness_problems",
]

# find_q stops with ResourceCapError after this many values of q's residue
# class.  Over every eligible core up to SCAN_HI_LIMIT = 2^22, for all four
# forms (5,152,766 constructions), the most any core needs is 3,307: core
# 3,293,745 under T1B and T2C, with q = 3,320,201.
Q_CANDIDATE_BUDGET = 10**6

# From TABLE_LIMIT up, find_q sieves q's class in windows of _Q_WINDOW
# values by the odd primes below _Q_SIEVE_BOUND.  _Q_SIEVE maps each
# modulus of a profile's class to its (p, 1/modulus mod p) for the primes p
# that do not divide it.
_Q_WINDOW = 256
_Q_SIEVE_BOUND = 64
_Q_SIEVE = {
    modulus: tuple((p, pow(modulus, -1, p)) for p in range(3, _Q_SIEVE_BOUND, 2)
                   if is_prime(p) and modulus % p)
    for modulus in {profile.q_residue[1] for profile in PROFILES.values()}
}

# Cores whose odd part is 1 make every modulus in the construction
# degenerate, so they are settled by inspection: each base is the first hit
# of the exhaustive search (oracle.brute_force_ternary).  No eligible core
# of x^2+y^2+7z^2 is below 5, and 2 is not an eligible core of x^2+y^2+3z^2.
SMALL_CORE = "SMALL_CORE"
_SMALL_CORE_BASE = {
    (TernaryForm.D122, 1): (1, 0, 0),
    (TernaryForm.D122, 2): (0, 0, 1),
    (TernaryForm.D112, 1): (0, 1, 0),
    (TernaryForm.D112, 2): (0, 0, 1),
    (TernaryForm.D113, 1): (0, 1, 0),
}

# The case of an answer whose triple came from the exhaustive search
# (represent --fallback-oracle), not from the construction.
ORACLE_CASE = "ORACLE"


class Construction(namedtuple("Construction", "q t b h point r1 n binary")):
    """The run of the construction on the frame core of
    construction_frame(form, core): for case T2D that is m1 = core / 2
    under the x^2+2y^2+2z^2 profile of m1.

    q, t, b, h, r1 and n are ints, point is an (x, y, z) triple and
    binary the pair (a, beta) with a^2 + c*beta^2 = n."""

    __slots__ = ()


class Witness(namedtuple("Witness",
                         "form m k s core case_id construction representation")):
    """Full audit trail for one represented integer; construction is None
    exactly on the small-core path.

    form is a TernaryForm, m, k, s and core are ints, case_id is a str,
    construction is a Construction or None, and representation is the
    triple of m."""

    __slots__ = ()


# The witness schema of the construction: each JSON key, in output order,
# with the Construction attribute it holds and the value's shape, int or
# the length of a tuple of ints (2, a pair, or 3, a triple).  The keys are
# null exactly when the construction is None.
CONSTRUCTION_KEYS = (("q", "q", int), ("t", "t", int), ("b", "b", int), ("h", "h", int),
                     ("point", "point", 3), ("R", "r1", int), ("binary_value", "n", int),
                     ("binary_rep", "binary", 2))

# The JSON keys of a witness, in output order.
WITNESS_KEYS = ("form", "m", "eligible", "verdict", "case", "k", "s", "core",
                *(key for key, _, _ in CONSTRUCTION_KEYS),
                "representation", "verified")


def witness_fields(w: Witness) -> dict:
    """The JSON object of a witness, keyed by WITNESS_KEYS: tuples become
    lists, and verified is verify_witness(w).  witness_from_fields reads
    it back."""
    con = w.construction
    built = [None if con is None else getattr(con, attr) for _, attr, _ in CONSTRUCTION_KEYS]
    values = [w.form.cli_name, w.m, True, Eligibility.ELIGIBLE.value, w.case_id,
              w.k, w.s, w.core, *built, w.representation, verify_witness(w)]
    return {key: list(v) if isinstance(v, tuple) else v
            for key, v in zip(WITNESS_KEYS, values)}


def verdict_fields(form: TernaryForm, m: int, verdict: EligibilityVerdict,
                   rep) -> dict:
    """The JSON object of an answer without a witness, keyed by WITNESS_KEYS:
    verdict is m's EligibilityVerdict, and rep, when not None, the oracle's
    triple under case ORACLE_CASE.  verified is whether rep evaluates to m;
    the keys that only a witness fills are null."""
    return dict.fromkeys(WITNESS_KEYS) | {
        "form": form.cli_name,
        "m": m,
        "eligible": False,
        "verdict": verdict.kind.value,
        "case": ORACLE_CASE if rep is not None else None,
        "representation": None if rep is None else list(rep),
        "verified": rep is not None and evaluate(form, rep) == m,
    }


def witness_from_fields(d: dict) -> Witness:
    """The Witness that a JSON object in witness_fields' schema describes.

    It never raises: a list becomes a tuple and a form name its form, and
    a value of the wrong type is kept for witness_problems to report.  The
    construction is None when every key of CONSTRUCTION_KEYS is null or
    absent.  The producer's claims eligible, verdict and verified are not
    read.
    """
    def get(key):
        value = d.get(key)
        return tuple(value) if isinstance(value, list) else value

    form = get("form")
    if isinstance(form, str):
        form = FORM_BY_NAME.get(form, form)
    built = {attr: get(key) for key, attr, _ in CONSTRUCTION_KEYS}
    con = None if all(v is None for v in built.values()) else Construction(**built)
    return Witness(form, get("m"), get("k"), get("s"), get("core"), get("case"),
                   con, get("representation"))


def _residue_at_each(a: int, primes) -> bool:
    """Whether a is a nonzero square mod each odd prime p in primes, by
    Euler's criterion: a^((p-1)/2) = 1 (mod p)."""
    for p in primes:
        if pow(a, p >> 1, p) != 1:
            return False
    return True


def find_q(profile: CaseProfile, core: int, primes) -> int:
    """Smallest prime q > max(core, 2) in the profile's residue class with
    the Legendre symbol (-t_den_factor * q / p) = 1 for each p in primes,
    those of n0(core): the condition under which solve_t has a root at
    every p.  Each p is an odd prime, so the symbol is taken by Euler's
    criterion, (-t_den_factor * q)^((p-1)/2) = 1 (mod p).

    Below TABLE_LIMIT each value of the class meets primality first, one
    byte of arith.LEAST_FACTOR (every class holds odd numbers only), and
    then the characters.  From TABLE_LIMIT up the class is walked in
    windows of _Q_WINDOW values, and a sieve marks in each window the
    multiples of the odd primes below _Q_SIEVE_BOUND that do not divide
    the modulus: composites, since every value is at least TABLE_LIMIT.
    Only an unmarked value meets the characters, each of which fails for
    about half of the values, and then is_prime.  Neither the order of the
    tests nor the sieve changes which q is returned.

    Raises ResourceCapError after Q_CANDIDATE_BUDGET values of the residue
    class have been examined, sieved ones included, or at the first value,
    sieved or not, that reaches PRIMALITY_LIMIT.
    """
    r, modulus = profile.q_residue
    den = profile.t_den_factor
    q = max(core, 2) + 1
    q += (r - q) % modulus
    left = Q_CANDIDATE_BUDGET
    while q < TABLE_LIMIT and left:
        left -= 1
        if not LEAST_FACTOR[q >> 1] and _residue_at_each(-den * q, primes):
            return q
        q += modulus
    while left:
        size = min(_Q_WINDOW, left)
        # the first `below` values of the window lie below PRIMALITY_LIMIT;
        # none of them when below <= 0
        below = min(size, (PRIMALITY_LIMIT - q + modulus - 1) // modulus)
        unmarked = bytearray(b"\1") * _Q_WINDOW
        for p, inverse in _Q_SIEVE[modulus]:
            # q + i*modulus = 0 (mod p) exactly for i = -q/modulus (mod p)
            i = -q * inverse % p
            unmarked[i::p] = bytes((_Q_WINDOW - 1 - i) // p + 1)
        for i in compress(range(below), unmarked):
            value = q + i * modulus
            if _residue_at_each(-den * value, primes) and is_prime(value):
                return value
        if below < size:
            raise ResourceCapError(
                "no auxiliary prime for core %d below the proven primality bound" % core
            )
        q += size * modulus
        left -= size
    raise ResourceCapError(
        "no auxiliary prime for core %d within %d candidates" % (core, Q_CANDIDATE_BUDGET)
    )


def solve_t(profile: CaseProfile, primes, q: int) -> int:
    """t in [0, prod(primes)) with t^2 = -1/(t_den_factor * q) modulo each of
    the distinct odd primes: the canonical roots at each prime, combined by CRT.

    The character condition on q guarantees solvability, so failure here
    is an internal error.
    """
    den = profile.t_den_factor * q
    pairs = []
    for p in primes:
        try:
            a = -inv_mod(den % p, p) % p
            pairs.append((sqrt_mod_prime(a, p), p))
        except (NonResidueError, NotInvertibleError) as exc:
            raise InternalError(
                "t-congruence unsolvable mod %d (q = %d): %s" % (p, q, exc)
            ) from exc
    return crt(pairs)


def solve_bh(profile: CaseProfile, n0: int, q: int) -> tuple:
    """(b, h) with b^2 + gamma*n0 = (d_factor * q) * h.

    b is canonical: of the roots r <= q - r of b^2 = -gamma*n0 (mod q), the
    first with d_factor * q dividing b^2 + gamma*n0.  The derivations in
    cases.py show that one of them always fits.
    """
    gn = profile.gamma * n0
    try:
        root = sqrt_mod_prime(-gn % q, q)
    except NonResidueError as exc:
        raise InternalError(
            "-%d should be a square mod %d by construction: %s" % (gn, q, exc)
        ) from exc
    d = profile.d_factor * q
    for b in (root, q - root):
        if (b * b + gn) % d == 0:
            return b, (b * b + gn) // d
    raise InternalError("no b in {r, q-r} has %d | b^2 + %d" % (d, gn))


def construction_frame(form: TernaryForm, core: int) -> tuple:
    """(case id, profile, frame core) of the construction for a core.

    Even cores of x^2+y^2+2z^2 (case T2D) run the x^2+2y^2+2z^2
    construction on m1 = core / 2 and permute its result (see _assemble);
    every other core runs its own profile on itself.  Raises InternalError
    when no profile covers the core.
    """
    if form is TernaryForm.D112 and core % 2 == 0:
        return "T2D", select_case(TernaryForm.D122, core // 2), core // 2
    profile = select_case(form, core)
    return profile.id, profile, core


def _assemble(case_id: str, profile: CaseProfile, binary: tuple, r1: int) -> tuple:
    """Representation of the core from the descent output (a, beta) and R1;
    case T2D maps the x^2+2y^2+2z^2 triple (u, v, w) of m1 to (2v, 2w, u)."""
    u, v, w = profile.assemble(binary[0], binary[1], r1)
    return (2 * v, 2 * w, u) if case_id == "T2D" else (u, v, w)


def build_witness(form: TernaryForm, m: int):
    """Witness for eligible m, or the EligibilityVerdict explaining why m
    is out of reach (obstructed or outside the covered cases).

    The returned representation is always re-checked by evaluation.
    """
    verdict = eligibility(form, m)
    if not verdict.eligible:
        return verdict
    k, s, core = reduce_to_core(m)

    base = _SMALL_CORE_BASE.get((form, core))
    if base is not None:
        rep = checked_representation(form, m, lift_representation(base, k, s))
        return Witness(form, m, k, s, core, SMALL_CORE, None, rep)

    case_id, profile, frame_core = construction_frame(form, core)
    n0 = profile.n0(frame_core)
    primes = [p for p, _ in factorize(n0)]
    q = find_q(profile, frame_core, primes)
    t = solve_t(profile, primes, q)
    b, h = solve_bh(profile, n0, q)
    point = enumerate_point(profile, frame_core, q, t, b)
    r1, n, f_val = composed_values(profile, frame_core, q, t, b, point)
    if f_val != n0:
        raise InternalError("enumerated point does not hit the target")
    try:
        binary = represent_binary(n, profile.c)
    except NotRepresentableError as exc:
        raise InternalError(
            "descent failed for n = %d, c = %d: %s" % (n, profile.c, exc)
        ) from exc
    base = _assemble(case_id, profile, binary, r1)
    rep = checked_representation(form, m, lift_representation(base, k, s))
    return Witness(form, m, k, s, core, case_id,
                   Construction(q, t, b, h, point, r1, n, binary), rep)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _shape_problems(w: Witness) -> list:
    """Fields of the wrong type or length, each named by its JSON key:
    integers are ints but not bools, pairs and triples are tuples of ints
    (CONSTRUCTION_KEYS gives each construction field's shape), and the
    construction, when present, is a Construction."""
    problems = []
    if not isinstance(w.form, TernaryForm):
        problems.append("form is not one of the four forms")
    if not isinstance(w.case_id, str):
        problems.append("case is not a string")
    con = w.construction
    if con is not None and not isinstance(con, Construction):
        problems.append("construction is not a Construction")
    shapes = [(name, getattr(w, name), int) for name in ("m", "k", "s", "core")]
    shapes.append(("representation", w.representation, 3))
    if isinstance(con, Construction):
        shapes += [(key, getattr(con, attr), shape) for key, attr, shape in CONSTRUCTION_KEYS]
    # the integers first, then the tuples, each in the order above
    for name, value, shape in sorted(shapes, key=lambda item: item[2] is not int):
        if shape is int:
            if not _is_int(value):
                problems.append("%s is not an integer" % name)
        elif not isinstance(value, tuple) or len(value) != shape:
            problems.append("%s is not a %s" % (name, "pair" if shape == 2 else "triple"))
        elif not all(_is_int(v) for v in value):
            problems.append("%s has a non-integer entry" % name)
    return problems


def witness_problems(w: Witness) -> list:
    """Every invariant violation in the witness, recomputed from scratch.

    An empty list means the witness verifies.  A field of the wrong type or
    length is reported, and nothing is recomputed from it.
    """
    problems = _shape_problems(w)
    if problems:
        return problems
    form, m, k, s, core, case, con, representation = w
    if m < 1:
        return ["m < 1"]
    if k < 0:
        return ["k < 0"]
    if 2 * k >= m.bit_length():
        return ["4^k * s^2 * core != m"]  # 4^k alone exceeds m
    if not eligibility(form, m).eligible:
        problems.append("m is not eligible for this form")
    if (1 << (2 * k)) * s * s * core != m:
        problems.append("4^k * s^2 * core != m")
    if s < 1 or s % 2 == 0:
        problems.append("s is not a positive odd integer")
    odd_core = core // 2 if core % 2 == 0 else core
    if odd_core >= PRIMALITY_LIMIT:
        return problems + ["core is beyond the proven primality range"]
    # Factored once: for a core of the expected shape its odd part is also
    # the modulus of the character condition on q.  A core of the wrong
    # shape is reported below and its character condition is not checked.
    odd_factors = factorize(odd_core) if odd_core > 0 and odd_core % 2 else []
    if odd_core < 1 or odd_core % 2 == 0 or any(e > 1 for _, e in odd_factors):
        problems.append("core is not squarefree of the expected shape")
    if evaluate(form, representation) != m:
        problems.append("representation does not evaluate to m")

    if case == SMALL_CORE:
        base = _SMALL_CORE_BASE.get((form, core))
        if base is None:
            problems.append("no small-core base for core %d" % core)
        elif representation != lift_representation(base, k, s):
            problems.append("representation does not match the small-core base")
        if con is not None:
            problems.append("small-core witness carries construction fields")
        return problems

    try:
        case_id, profile, frame_core = construction_frame(form, core)
    except (InternalError, ValueError):
        return problems + ["no case covers core %d" % core]
    if case != case_id:
        return problems + ["unknown case id %r for core %d" % (case, core)]

    if con is None:
        return problems + ["construction fields are incomplete"]
    q, t, b, h, point, r1, n, binary = con

    if q < 2:
        return problems + ["q is not prime"]
    n0 = profile.n0(frame_core)
    if q >= PRIMALITY_LIMIT:
        problems.append("q is beyond the proven primality range")
    elif not is_prime(q):
        problems.append("q is not prime")
    if q <= max(frame_core, 2):
        problems.append("q is not above the core")
    r, modulus = profile.q_residue
    if q % modulus != r:
        problems.append("q is outside its residue class")
    den = profile.t_den_factor * q
    for p, _ in odd_factors:
        if pow(-den, p >> 1, p) != 1:
            problems.append("character condition fails at p = %d" % p)

    if not 0 <= t < max(n0, 1):
        problems.append("t out of range")
    if math.gcd(den, n0) != 1:
        problems.append("t denominator shares a factor with the modulus")
    elif (t * t + inv_mod(den % n0, n0)) % n0 != 0:
        problems.append("t^2 != -1/den (mod modulus)")

    if not 0 <= b < q:
        problems.append("b is not in canonical range")
    bh = b * b + profile.gamma * n0
    if bh != profile.d_factor * q * h:
        problems.append("b^2 + gamma*n0 != d*h")
    # F and the binary value are integral only when delta_factor * q
    # divides b^2 + gamma*n0, and otherwise are not compared: the line
    # above is then already reported, since delta_factor divides d_factor
    # in every profile.  R is exact for every b.
    integral = bh % (profile.delta_factor * q) == 0

    if point == (0, 0, 0):
        problems.append("point is zero")
        return problems
    try:
        point_r1, point_n, f_val = composed_values(profile, frame_core, q, t, b, point)
    except ValueError as exc:
        return problems + [str(exc)]
    if integral and f_val != n0:
        problems.append("F(point) != target")
    if point_r1 != r1:
        problems.append("R does not match the point")
    if integral and point_n != n:
        problems.append("binary_value does not match the point")

    a, beta = binary
    if a < 0 or beta < 0:
        problems.append("binary_rep not normalized")
    if a * a + profile.c * beta * beta != n:
        problems.append("binary_rep does not evaluate to n")

    base = _assemble(case_id, profile, binary, r1)
    if representation != lift_representation(base, k, s):
        problems.append("representation does not match the assembly")
    return problems


def verify_witness(w: Witness) -> bool:
    """True iff every witness invariant holds when recomputed from scratch."""
    return not witness_problems(w)
