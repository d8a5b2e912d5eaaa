"""Constructive witness pipeline.

For an eligible m the solver reduces to a squarefree core, picks the case
profile, finds the auxiliary prime q, solves the modular parameters t and
(b, h), enumerates the unique-shape lattice point with F(point) = target,
descends the binary value n = a^2 + c*beta^2, and assembles a
representation of m.  The Witness records every intermediate so the whole
chain can be re-audited offline.

Scan orders are normative: witnesses are bit-reproducible across runs and
job counts.  The existence argument behind the enumeration is a
geometry-of-numbers volume bound; the search simply walks the finite box
that bound permits and takes the first hit.
"""

import math
from dataclasses import dataclass

from .arith import PRIMALITY_LIMIT, crt, inv_mod, is_prime, jacobi, sqrt_mod_prime
from .cases import CaseProfile, select_case
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
    TernaryForm,
    checked_representation,
    eligibility,
    evaluate,
    lift_representation,
    reduce_to_core,
)

__all__ = [
    "DEFAULT_CANDIDATE_CAP",
    "LATTICE_STEP_BUDGET",
    "SMALL_CORE",
    "Construction",
    "Witness",
    "construction_frame",
    "find_q",
    "solve_t",
    "solve_bh",
    "enumerate_point",
    "composed_values",
    "build_witness",
    "verify_witness",
    "witness_problems",
]

DEFAULT_CANDIDATE_CAP = 10**6

# enumerate_point stops with ResourceCapError once |y| passes this bound,
# after 4-6 s on a 2-vCPU Xeon.  The budget delta*n0 - gamma*n0*y^2 turns
# negative past |y| = isqrt(delta_factor*q // gamma) <= isqrt(2q), so no
# core with q < 2^41 can reach it: every m up to 2^40 keeps its witness
# unless its q exceeds the core by more than 2^40.
LATTICE_STEP_BUDGET = 2**21

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


@dataclass(frozen=True)
class Construction:
    """The run of the construction on the frame core of
    construction_frame(form, core): for case T2D that is m1 = core / 2
    under the x^2+2y^2+2z^2 profile of m1."""

    q: int
    t: int
    b: int
    h: int
    point: tuple
    r1: int
    n: int
    binary: tuple


@dataclass(frozen=True)
class Witness:
    """Full audit trail for one represented integer; construction is None
    exactly on the small-core path."""

    form: TernaryForm
    m: int
    k: int
    s: int
    core: int
    case_id: str
    construction: Construction | None
    representation: tuple


def find_q(profile: CaseProfile, core: int, primes, max_candidates=DEFAULT_CANDIDATE_CAP) -> int:
    """Smallest prime q > max(core, 2) in the profile's residue class with
    jacobi(-t_den_factor * q, p) = 1 for each p in primes, those of n0(core):
    the condition under which solve_t has a root at every p.

    Raises ResourceCapError after max_candidates values of the residue
    class have been examined, or when q reaches PRIMALITY_LIMIT.
    """
    r, modulus = profile.q_residue
    den = profile.t_den_factor
    q = max(core, 2) + 1
    q += (r - q) % modulus
    for _ in range(max_candidates):
        if q >= PRIMALITY_LIMIT:
            raise ResourceCapError(
                "no auxiliary prime for core %d below the proven primality bound" % core
            )
        if is_prime(q) and all(
            jacobi(-den * q, p) == 1 for p in primes
        ):
            return q
        q += modulus
    raise ResourceCapError(
        "no auxiliary prime for core %d within %d candidates" % (core, max_candidates)
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
    """(b, h) with b^2 + gamma*n0 = (d_factor * q) * h and the profile's
    side condition on h.

    b is canonical: from the canonical root r of -gamma*n0 mod q, it is the
    smallest of the candidates {r, q-r, r+q, 2q-r} with d_factor * q
    dividing b^2 + gamma*n0.
    """
    gn = profile.gamma * n0
    try:
        root = sqrt_mod_prime(-gn % q, q)
    except NonResidueError as exc:
        raise InternalError(
            "-%d should be a square mod %d by construction: %s" % (gn, q, exc)
        ) from exc
    d = profile.d_factor * q
    fits = [v for v in (root, q - root, root + q, 2 * q - root) if (v * v + gn) % d == 0]
    if not fits:
        raise InternalError("no b in {r, q-r, r+q, 2q-r} has %d | b^2 + %d" % (d, gn))
    b = min(fits)
    h = (b * b + gn) // d
    if profile.h_odd and h % 2 == 0:
        raise InternalError("h = %d should be odd for profile %s" % (h, profile.id))
    return b, h


def composed_values(profile: CaseProfile, core: int, q: int, t: int, b: int, point) -> tuple:
    """(R, binary part, F) of the composed form at a lattice point.

    The point is given in lattice coordinates; for the substituted profiles
    its x-coordinate must be even.
    """
    x, y, z = point
    if profile.x_substituted:
        if x % 2 != 0:
            raise ValueError("lattice x must be even for profile %s" % profile.id)
        x //= 2
    u, w, v = profile.binary_coefficients(core, q, b)
    binary = u * x * x + w * x * y + v * y * y
    r_val = profile.alpha * t * q * x + b * t * y + profile.n0(core) * z
    return r_val, binary, profile.rho * r_val * r_val + binary


def enumerate_point(profile: CaseProfile, core: int, q: int, t: int, b: int) -> tuple:
    """First lattice point with F(point) = target under the normative scan.

    Scan order: y ascending by absolute value with the negative sign first
    (0, -1, 1, -2, 2, ...), then x ascending, then z.  F is a quadratic
    form, so F(-point) = F(point), and every bound below depends on |y|
    only: a hit at y = +a negates to a hit at y = -a, which comes first.
    The scan therefore visits y = -|y| alone and never returns y > 0.

    It works on the completed square: with delta = delta_factor*q,
    lam = alpha*q and e = lam*x + b*y, the binary part is
    (e^2 + gamma*n0*y^2) / delta and R = t*e + n0*z, so
    rho*delta*R^2 + e^2 = budget with budget = delta*n0 - gamma*n0*y^2.
    The budget shrinks as |y| grows and is carried from one |y| to the
    next; x ascends with e over [-isqrt(budget), isqrt(budget)] in steps
    of lam.  As |R| <= isqrt(n0 / rho) < n0 / 2 and n0 is odd, the only
    candidate R is the centred residue of t*e mod n0, and z = (R - t*e) / n0
    is exact.  All arithmetic is in exact integers.  The scan does not
    read h, and it ends where the budget turns negative, at
    |y| = isqrt(delta_factor*q // gamma).

    Requires n0 >= 3 (ValueError otherwise); build_witness settles the
    cores whose odd part is 1 without a scan.  Raises ResourceCapError when
    |y| passes LATTICE_STEP_BUDGET before a hit.
    """
    target = profile.n0(core)
    if target < 3:
        raise ValueError("enumerate_point requires n0 >= 3, got %d" % target)
    half = target // 2
    gn = profile.gamma * target
    gn2 = 2 * gn
    rho_delta = profile.rho * profile.delta_factor * q
    lam = profile.alpha * q
    budget = profile.delta_factor * q * target
    ay_max = math.isqrt(budget // gn)
    isqrt = math.isqrt
    by, drop = 0, gn  # b*y at y = -|y|, and budget(|y|) - budget(|y| + 1)

    for ay in range(min(ay_max, LATTICE_STEP_BUDGET) + 1):
        s = isqrt(budget)
        e = (by + s) % lam - s
        while e <= s:
            r_val = (t * e + half) % target - half
            if rho_delta * r_val * r_val + e * e == budget:
                x = (e - by) // lam
                lattice_x = 2 * x if profile.x_substituted else x
                return (lattice_x, -ay, (r_val - t * e) // target)
            e += lam
        budget -= drop
        drop += gn2
        by -= b
    if ay_max > LATTICE_STEP_BUDGET:
        raise ResourceCapError(
            "lattice scan for core %d (profile %s) passed its budget of %d values of |y|"
            % (core, profile.id, LATTICE_STEP_BUDGET)
        )
    raise InternalError(
        "no lattice point with F = %d for core %d (profile %s)"
        % (target, core, profile.id)
    )


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


def build_witness(
    form: TernaryForm, m: int, max_candidates: int = DEFAULT_CANDIDATE_CAP
):
    """Witness for eligible m, or the EligibilityVerdict explaining why m
    is out of reach (obstructed or outside the covered cases).

    The returned representation is always re-checked by evaluation.
    """
    verdict = eligibility(form, m)
    if not verdict.eligible:
        return verdict
    k, s, core = reduce_to_core(form, m)

    base = _SMALL_CORE_BASE.get((form, core))
    if base is not None:
        rep = checked_representation(form, m, lift_representation(base, k, s))
        return Witness(form, m, k, s, core, SMALL_CORE, None, rep)

    case_id, profile, frame_core = construction_frame(form, core)
    n0 = profile.n0(frame_core)
    primes = [p for p, _ in factorize(n0)]
    q = find_q(profile, frame_core, primes, max_candidates)
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
    """Fields of the wrong type or length: integers are ints but not bools,
    point, binary and representation are tuples of ints, and the
    construction, when present, is a Construction."""
    problems = []
    if not isinstance(w.form, TernaryForm):
        problems.append("form is not a TernaryForm")
    if not isinstance(w.case_id, str):
        problems.append("case id is not a string")
    con = w.construction
    if con is not None and not isinstance(con, Construction):
        problems.append("construction is not a Construction")
    ints = [(name, getattr(w, name)) for name in ("m", "k", "s", "core")]
    tuples = [("representation", w.representation, 3)]
    if isinstance(con, Construction):
        ints += [(name, getattr(con, name)) for name in ("q", "t", "b", "h", "r1", "n")]
        tuples += [("point", con.point, 3), ("binary rep", con.binary, 2)]
    for name, value in ints:
        if not _is_int(value):
            problems.append("%s is not an integer" % name)
    for name, value, size in tuples:
        if not isinstance(value, tuple) or len(value) != size:
            problems.append("%s is not a %s" % (name, "pair" if size == 2 else "triple"))
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
    if w.m < 1:
        return ["m < 1"]
    if w.k < 0:
        return ["k < 0"]
    if 2 * w.k >= w.m.bit_length():
        return ["4^k * s^2 * core != m"]  # 4^k alone exceeds m
    if not eligibility(w.form, w.m).eligible:
        problems.append("m is not eligible for this form")
    if (1 << (2 * w.k)) * w.s * w.s * w.core != w.m:
        problems.append("4^k * s^2 * core != m")
    if w.s < 1 or w.s % 2 == 0:
        problems.append("s is not a positive odd integer")
    odd_core = w.core // 2 if w.core % 2 == 0 else w.core
    if odd_core >= PRIMALITY_LIMIT:
        return problems + ["core is beyond the proven primality range"]
    # Factored once: for a core of the expected shape its odd part is also
    # the modulus of the character condition on q.  A core of the wrong
    # shape is reported below and its character condition is not checked.
    odd_factors = factorize(odd_core) if odd_core > 0 and odd_core % 2 else []
    if odd_core < 1 or odd_core % 2 == 0 or any(e > 1 for _, e in odd_factors):
        problems.append("core is not squarefree of the expected shape")
    if evaluate(w.form, w.representation) != w.m:
        problems.append("representation does not evaluate to m")

    if w.case_id == SMALL_CORE:
        base = _SMALL_CORE_BASE.get((w.form, w.core))
        if base is None:
            problems.append("no small-core base for core %d" % w.core)
        elif w.representation != lift_representation(base, w.k, w.s):
            problems.append("representation does not match the small-core base")
        if w.construction is not None:
            problems.append("small-core witness carries construction fields")
        return problems

    try:
        case_id, profile, frame_core = construction_frame(w.form, w.core)
    except (InternalError, ValueError):
        return problems + ["no case covers core %d" % w.core]
    if w.case_id != case_id:
        return problems + ["unknown case id %r for core %d" % (w.case_id, w.core)]

    con = w.construction
    if con is None:
        return problems + ["construction fields are incomplete"]

    if con.q < 2:
        return problems + ["q is not prime"]
    n0 = profile.n0(frame_core)
    if con.q >= PRIMALITY_LIMIT:
        problems.append("q is beyond the proven primality range")
    elif not is_prime(con.q):
        problems.append("q is not prime")
    if con.q <= max(frame_core, 2):
        problems.append("q is not above the core")
    r, modulus = profile.q_residue
    if con.q % modulus != r:
        problems.append("q is outside its residue class")
    den = profile.t_den_factor * con.q
    for p, _ in odd_factors:
        if jacobi(-den, p) != 1:
            problems.append("character condition fails at p = %d" % p)

    if not 0 <= con.t < max(n0, 1):
        problems.append("t out of range")
    if math.gcd(den, n0) != 1:
        problems.append("t denominator shares a factor with the modulus")
    elif (con.t * con.t + inv_mod(den % n0, n0)) % n0 != 0:
        problems.append("t^2 != -1/den (mod modulus)")

    if not 0 <= con.b < 2 * con.q:
        problems.append("b is not in canonical range")
    if con.b * con.b + profile.gamma * n0 != profile.d_factor * con.q * con.h:
        problems.append("b^2 + gamma*n0 != d*h")
    elif profile.h_odd and con.h % 2 == 0:
        problems.append("h should be odd")

    if con.point == (0, 0, 0):
        problems.append("point is zero")
        return problems
    try:
        r1, n, f_val = composed_values(profile, frame_core, con.q, con.t, con.b, con.point)
    except ValueError as exc:
        return problems + [str(exc)]
    if f_val != n0:
        problems.append("F(point) != target")
    if r1 != con.r1:
        problems.append("R does not match the point")
    if n != con.n:
        problems.append("binary value does not match the point")

    a, beta = con.binary
    if a < 0 or beta < 0:
        problems.append("binary rep not normalized")
    if a * a + profile.c * beta * beta != con.n:
        problems.append("binary rep does not evaluate to n")

    base = _assemble(case_id, profile, con.binary, con.r1)
    if w.representation != lift_representation(base, w.k, w.s):
        problems.append("representation does not match the assembly")
    return problems


def verify_witness(w: Witness) -> bool:
    """True iff every witness invariant holds when recomputed from scratch."""
    return not witness_problems(w)
