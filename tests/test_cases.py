import pytest

from ternrep import (
    InternalError,
    PROFILES,
    TernaryForm,
    eligibility,
    factorize,
    reduce_to_core,
    select_case,
)
from ternrep.pipeline import construction_frame, find_q, solve_bh

# Double entry of the normative recipe table.  Each row:
# (form, parity, residues, q_residue, char, t_den, gamma, b_parity,
#  d, h_odd, delta, alpha, rho, y_bound, c, assembly)
TABLE = {
    "T1A": (TernaryForm.D122, "odd", (3,), (1, 8), 2, 2, 1, "odd",
            2, False, 1, 1, 2, (2, 1), 2, "a_b_r"),
    "T1B": (TernaryForm.D122, "odd", (1, 5), (1, 8), 1, 4, 1, "odd",
            2, False, 2, 2, 2, (4, 1), 2, "a_b_r"),
    "T1C": (TernaryForm.D122, "even", (1, 3), (1, 8), 2, 2, 2, "even",
            2, False, 2, 2, 1, (2, 1), 2, "2b_a_r"),
    "T1D": (TernaryForm.D122, "even", (5,), (5, 8), 2, 2, 2, "even",
            2, False, 2, 2, 1, (2, 1), 2, "2b_a_r"),
    "T1E": (TernaryForm.D122, "even", (7,), (3, 8), 2, 2, 2, "even",
            2, False, 2, 2, 1, (2, 1), 2, "2b_a_r"),
    "T2A": (TernaryForm.D112, "odd", (3,), (1, 8), 2, 2, 2, "even",
            2, False, 2, 2, 1, (2, 1), 2, "r_a_b"),
    "T2B": (TernaryForm.D112, "odd", (7,), (3, 8), 2, 2, 2, "even",
            2, False, 2, 2, 1, (2, 1), 2, "r_a_b"),
    "T2C": (TernaryForm.D112, "odd", (1, 5), (1, 8), 1, 1, 2, "free",
            1, False, 1, 1, 1, (1, 1), 2, "r_a_b"),
    "T3A": (TernaryForm.D117, "odd", (5,), (1, 28), 1, 4, 7, "odd",
            4, True, 4, 2, 1, (8, 7), 7, "a_r_b"),
    "T3B": (TernaryForm.D113, "odd", (1,), (1, 12), 1, 4, 3, "odd",
            4, True, 4, 2, 1, (8, 3), 3, "a_r_b"),
}


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
        p = PROFILES[case_id]
        assert (p.form, p.core_parity, p.core_residues, p.q_residue,
                p.char_factor, p.t_den_factor, p.gamma, p.b_parity,
                p.d_factor, p.h_odd, p.delta_factor, p.alpha, p.rho,
                p.y_bound, p.c, p.assembly) == TABLE[case_id]

    def test_y_bound_is_the_budget_bound(self):
        # y^2 < num*q/den must equal y^2 < 2*delta_factor*q/gamma, which the
        # lattice scan's budget (delta_factor*q - gamma*y^2 >= 0) meets
        # first; a row whose y_bound would bind changes the scan.
        for p in PROFILES.values():
            num, den = p.y_bound
            assert num * p.gamma == 2 * p.delta_factor * den, p.id

    def test_x_substitution_marks_even_core_rows(self):
        for p in PROFILES.values():
            assert p.x_substituted == (p.id in ("T1C", "T1D", "T1E"))


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
        for case_id in sorted(TABLE):
            p = PROFILES[case_id]
            core = next(
                c for c in eligible_cores(p.form, 500)
                if construction_frame(p.form, c)[1] is p and c > 2
            )
            q = find_q(p, core, [f for f, _ in factorize(p.n0(core))])
            b, h = solve_bh(p, p.n0(core), q)
            u, w, v = p.binary_coefficients(core, q, b, h)
            delta = p.delta_factor * q
            lam = p.alpha * q
            assert u * delta == lam * lam
            assert w * delta == 2 * lam * b
            assert v * delta == b * b + p.gamma * p.n0(core)
            disc = w * w - 4 * u * v
            assert disc < 0
            assert disc * delta * delta == -4 * lam * lam * p.gamma * p.n0(core)
