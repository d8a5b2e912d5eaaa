import itertools
import math
from fractions import Fraction

import pytest

from ternrep import (
    InternalError,
    PROFILES,
    TernaryForm,
    Witness,
    build_witness,
    eligibility,
    factorize,
    reduce_to_core,
    select_case,
)
from ternrep.lattice import composed_values
from ternrep.pipeline import construction_frame, find_q, solve_bh

from reference import binary_coefficients, det_factor

# Double entry of the normative recipe table: the paper's free constants of
# each case, in COLUMNS order.
COLUMNS = ("form", "core_parity", "core_residues", "q_residue", "gamma",
           "d_factor", "delta_factor", "alpha", "rho", "assembly")
TABLE = {
    "T1A": (TernaryForm.D122, "odd", (3,), (1, 8), 1, 2, 1, 1, 2, "a_b_r"),
    "T1B": (TernaryForm.D122, "odd", (1, 5), (1, 8), 1, 2, 2, 2, 2, "a_b_r"),
    "T1C": (TernaryForm.D122, "even", (1, 3), (1, 8), 2, 2, 2, 2, 1, "2b_a_r"),
    "T1D": (TernaryForm.D122, "even", (5,), (5, 8), 2, 2, 2, 2, 1, "2b_a_r"),
    "T1E": (TernaryForm.D122, "even", (7,), (3, 8), 2, 2, 2, 2, 1, "2b_a_r"),
    "T2A": (TernaryForm.D112, "odd", (3,), (1, 8), 2, 2, 2, 2, 1, "r_a_b"),
    "T2B": (TernaryForm.D112, "odd", (7,), (3, 8), 2, 2, 2, 2, 1, "r_a_b"),
    "T2C": (TernaryForm.D112, "odd", (1, 5), (1, 8), 2, 1, 1, 1, 1, "r_a_b"),
    "T3A": (TernaryForm.D117, "odd", (5,), (1, 28), 7, 4, 4, 2, 1, "a_r_b"),
    "T3B": (TernaryForm.D113, "odd", (1,), (1, 12), 3, 4, 4, 2, 1, "a_r_b"),
}
# The binary descent constant c of each case: n = a^2 + c*beta^2.
DESCENT_C = {"T1A": 2, "T1B": 2, "T1C": 2, "T1D": 2, "T1E": 2,
             "T2A": 2, "T2B": 2, "T2C": 2, "T3A": 7, "T3B": 3}
# t^2 = -1/(t_den * q) (mod n0) in the paper's statement of each case.
T_DEN = {"T1A": 2, "T1B": 4, "T1C": 2, "T1D": 2, "T1E": 2,
         "T2A": 2, "T2B": 2, "T2C": 1, "T3A": 4, "T3B": 4}


def eligible_cores(form, limit):
    for core in range(1, limit):
        verdict = eligibility(form, core)
        if verdict.eligible and reduce_to_core(form, core)[2] == core:
            yield core


class TestProfileTable:
    def test_ids(self):
        assert set(PROFILES) == set(TABLE)

    @pytest.mark.parametrize("case_id", sorted(TABLE))
    def test_row(self, case_id):
        # every stored column is pinned: a column added without a TABLE
        # value fails here
        p = PROFILES[case_id]
        stored = p._asdict()
        assert stored == dict(zip(COLUMNS, TABLE[case_id]), id=case_id)

    def test_descent_constant_is_third_coefficient(self):
        for case_id, c in DESCENT_C.items():
            p = PROFILES[case_id]
            assert p.c == p.form.coefficients[2] == c, case_id

    def test_t_denominator_is_rho_delta(self):
        for case_id, t_den in T_DEN.items():
            p = PROFILES[case_id]
            assert p.t_den_factor == p.rho * p.delta_factor == t_den, case_id

    def test_delta_at_most_twice_gamma(self):
        # delta_factor*q*n0 - gamma*n0*y^2, the room left for e^2 and R^2 at
        # a lattice point with F = n0, turns negative past
        # y^2 = delta_factor*q/gamma, so delta_factor <= 2*gamma puts every
        # point at |y| <= sqrt(2q): the scan case of lattice.enumerate_point
        # visits at most that many values of |y|, as the README states.
        for p in PROFILES.values():
            assert p.delta_factor <= 2 * p.gamma, p.id

    def test_delta_divides_d(self):
        # so a b with b^2 + gamma*n0 != d*h is reported whenever
        # delta_factor * q fails to divide b^2 + gamma*n0, and
        # witness_problems can leave out the F lines that read a rounded v
        for p in PROFILES.values():
            assert p.d_factor % p.delta_factor == 0, p.id

    def test_x_substitution_marks_even_core_rows(self):
        for p in PROFILES.values():
            assert p.x_substituted == (p.id in ("T1C", "T1D", "T1E"))


# A rational lower bound of pi: the continued-fraction convergent 333/106.
PI_LO = Fraction(333, 106)


def constructions(profile, count):
    """{frame core: Construction} of the first count cores, in order of m,
    whose build_witness runs profile."""
    found = {}
    for m in itertools.count(1):
        w = build_witness(profile.form, m)
        if isinstance(w, Witness) and w.construction is not None:
            _, frame_profile, core = construction_frame(profile.form, w.core)
            if frame_profile is profile:
                found.setdefault(core, w.construction)
                if len(found) == count:
                    return found


def gram_determinant(profile, core, con):
    """Exact determinant of F's Gram matrix in the free lattice coordinates,
    from composed_values at e_i and e_i + e_j (x = 2x' when substituted):
    the (i, j) entry is (F(e_i + e_j) - F(e_i) - F(e_j)) / 2."""
    units = [(2 if profile.x_substituted else 1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def f(point):
        return composed_values(profile, core, con.q, con.t, con.b, point)[2]

    (a, b, c), (d, e, g), (h, i, k) = [
        [Fraction(f(tuple(s + t for s, t in zip(u, v))) - f(u) - f(v), 2)
         for v in units] for u in units]
    return a * (e * k - g * i) - b * (d * k - g * h) + c * (d * i - e * h)


class TestExistenceBound:
    """The Minkowski argument of cases.py, checked per row: F's Gram
    determinant is det_factor * n0^3, and det_factor is small enough for
    the ellipsoid F < 2*n0 to hold a lattice point."""

    def test_pi_lo_is_below_pi(self):
        assert PI_LO < math.pi

    @pytest.mark.parametrize("case_id", sorted(TABLE))
    def test_gram_determinant(self, case_id):
        p = PROFILES[case_id]
        for core, con in constructions(p, 50).items():
            assert gram_determinant(p, core, con) == det_factor(p) * p.n0(core) ** 3, core

    @pytest.mark.parametrize("case_id", sorted(TABLE))
    def test_minkowski_bound(self, case_id):
        assert 36 * det_factor(PROFILES[case_id]) < 8 * PI_LO ** 2


def admissible_y_parities(profile, modulus=64):
    """Parities of y for which rho*delta_f*q*R^2 + e^2 + gamma*n0*y^2
    = delta_f*q*n0 has a solution mod 64.

    q runs over the odd residues of its class, n0 over the odd residues in
    core_residues (mod 8), b over the parities that solve_bh allows (that
    of gamma*n0 when d_factor is even), and e = alpha*q*x + b*y over the
    residues = b*y (mod 2) when alpha is even.  R, e and y run over every
    residue: a point with F = n0 has a parity of y that appears here."""
    r, q_mod = profile.q_residue
    step = math.gcd(q_mod, modulus)
    squares = [{v * v % modulus for v in range(modulus) if v % 2 == par}
               for par in (0, 1)]
    every = squares[0] | squares[1]
    found = set()
    for q in range(1, modulus, 2):
        if q % step != r % step:
            continue
        r_part = {profile.rho * profile.delta_factor * q * v % modulus for v in every}
        for n0 in range(1, modulus, 2):
            if n0 % 8 not in profile.core_residues:
                continue
            b_parities = (0, 1) if profile.d_factor % 2 else (profile.gamma * n0 % 2,)
            for b, y in itertools.product(b_parities, range(modulus)):
                e_part = squares[b * y % 2] if profile.alpha % 2 == 0 else every
                rest = (profile.delta_factor * q - profile.gamma * y * y) * n0
                if any((rest - e2) % modulus in r_part for e2 in e_part):
                    found.add(y % 2)
    return found


class TestParityOfY:
    """CaseProfile.y_parity, which lets the lattice scan step |y| by 2, is
    what the 2-adic congruence of each row proves."""

    def test_parity_is_forced_by_the_congruence(self):
        # exactly T1B and T2C admit a single parity of y mod 64
        single = {}
        for p in PROFILES.values():
            parities = admissible_y_parities(p)
            assert parities, p.id
            if len(parities) == 1:
                single[p.id] = parities.pop()
        assert single == {"T1B": 1, "T2C": 0}
        assert {p.id: p.y_parity for p in PROFILES.values()} == {
            case_id: single.get(case_id) for case_id in PROFILES}

    @pytest.mark.parametrize("case_id", sorted(TABLE))
    def test_points_of_both_parities_where_allowed(self, case_id):
        # the rows that visit every |y| do have points at each parity
        p = PROFILES[case_id]
        parities = {con.point[1] % 2 for con in constructions(p, 60).values()}
        assert parities == ({0, 1} if p.y_parity is None else {p.y_parity})


class TestSelectCase:
    def test_pinned_values(self):
        assert select_case(TernaryForm.D122, 3).id == "T1A"
        assert select_case(TernaryForm.D122, 10).id == "T1D"
        assert construction_frame(TernaryForm.D112, 6) == ("T2D", PROFILES["T1A"], 3)

    def test_unique_applicable_profile(self):
        # even cores of x2+y2+2z2 run the x2+2y2+2z2 profile of core / 2
        for form in TernaryForm:
            for core in eligible_cores(form, 2000):
                t2d = form is TernaryForm.D112 and core % 2 == 0
                frame_form = TernaryForm.D122 if t2d else form
                frame_core = core // 2 if t2d else core
                parity = "even" if frame_core % 2 == 0 else "odd"
                odd = frame_core // 2 if frame_core % 2 == 0 else frame_core
                hits = [
                    p.id for p in PROFILES.values()
                    if p.form is frame_form and p.core_parity == parity
                    and odd % 8 in p.core_residues
                ]
                assert len(hits) == 1
                assert construction_frame(form, core) == (
                    "T2D" if t2d else hits[0], PROFILES[hits[0]], frame_core
                )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            select_case(TernaryForm.D122, 0)

    def test_uncovered_core(self):
        with pytest.raises(InternalError):
            select_case(TernaryForm.D117, 3)


class TestProfileHelpers:
    def test_n0_and_target(self):
        assert PROFILES["T1A"].n0(3) == 3
        assert PROFILES["T1D"].n0(10) == 5

    def test_assemble_tags(self):
        assert PROFILES["T1A"].assemble(1, 0, -1) == (1, 0, 1)
        assert PROFILES["T1C"].assemble(3, 2, -5) == (4, 3, 5)
        assert PROFILES["T2A"].assemble(1, 2, 3) == (3, 1, 2)
        assert PROFILES["T3A"].assemble(1, 2, -3) == (1, 3, 2)

    def test_binary_coefficients_integral_and_definite(self):
        # u, w, v must come out integral with discriminant
        # -4 (alpha q / delta)^2 gamma n0 < 0 for real constructed (b, h).
        # u and w are integral for every q and b, as lattice.composed_values
        # relies on: delta_factor divides alpha^2 and 2*alpha.
        for case_id in sorted(TABLE):
            p = PROFILES[case_id]
            assert p.alpha ** 2 % p.delta_factor == 0 == 2 * p.alpha % p.delta_factor
            core = next(
                c for c in eligible_cores(p.form, 500)
                if construction_frame(p.form, c)[1] is p and c > 2
            )
            q = find_q(p, core, [f for f, _ in factorize(p.n0(core))])
            b, _ = solve_bh(p, p.n0(core), q)
            u, w, v = binary_coefficients(p, core, q, b)
            delta = p.delta_factor * q
            lam = p.alpha * q
            assert u * delta == lam * lam
            assert w * delta == 2 * lam * b
            assert v * delta == b * b + p.gamma * p.n0(core)
            disc = w * w - 4 * u * v
            assert disc < 0
            assert disc * delta * delta == -4 * lam * lam * p.gamma * p.n0(core)
