import dataclasses

import pytest

from ternrep import (
    CaseProfile,
    InternalError,
    PROFILES,
    TernaryForm,
    eligibility,
    factorize,
    reduce_to_core,
    select_case,
)
from ternrep.pipeline import construction_frame, find_q, solve_bh

# Double entry of the normative recipe table: the paper's free constants of
# each case, in COLUMNS order.
COLUMNS = ("form", "core_parity", "core_residues", "q_residue", "gamma",
           "d_factor", "delta_factor", "alpha", "rho", "c", "assembly", "h_odd")
TABLE = {
    "T1A": (TernaryForm.D122, "odd", (3,), (1, 8), 1, 2, 1, 1, 2, 2, "a_b_r", False),
    "T1B": (TernaryForm.D122, "odd", (1, 5), (1, 8), 1, 2, 2, 2, 2, 2, "a_b_r", False),
    "T1C": (TernaryForm.D122, "even", (1, 3), (1, 8), 2, 2, 2, 2, 1, 2, "2b_a_r", False),
    "T1D": (TernaryForm.D122, "even", (5,), (5, 8), 2, 2, 2, 2, 1, 2, "2b_a_r", False),
    "T1E": (TernaryForm.D122, "even", (7,), (3, 8), 2, 2, 2, 2, 1, 2, "2b_a_r", False),
    "T2A": (TernaryForm.D112, "odd", (3,), (1, 8), 2, 2, 2, 2, 1, 2, "r_a_b", False),
    "T2B": (TernaryForm.D112, "odd", (7,), (3, 8), 2, 2, 2, 2, 1, 2, "r_a_b", False),
    "T2C": (TernaryForm.D112, "odd", (1, 5), (1, 8), 2, 1, 1, 1, 1, 2, "r_a_b", False),
    "T3A": (TernaryForm.D117, "odd", (5,), (1, 28), 7, 4, 4, 2, 1, 7, "a_r_b", True),
    "T3B": (TernaryForm.D113, "odd", (1,), (1, 12), 3, 4, 4, 2, 1, 3, "a_r_b", True),
}
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
        stored = {f.name: getattr(p, f.name) for f in dataclasses.fields(CaseProfile)}
        assert stored == dict(zip(COLUMNS, TABLE[case_id]), id=case_id)

    def test_t_denominator_is_rho_delta(self):
        for case_id, t_den in T_DEN.items():
            p = PROFILES[case_id]
            assert p.t_den_factor == p.rho * p.delta_factor == t_den, case_id

    def test_delta_at_most_twice_gamma(self):
        # The lattice scan's budget delta_factor*q*n0 - gamma*n0*y^2 turns
        # negative past y^2 = delta_factor*q/gamma, so delta_factor <= 2*gamma
        # bounds the scan by sqrt(2q) values of |y|, the bound that the
        # LATTICE_STEP_BUDGET comment and the README rely on.
        for p in PROFILES.values():
            assert p.delta_factor <= 2 * p.gamma, p.id

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
            b, _ = solve_bh(p, p.n0(core), q)
            u, w, v = p.binary_coefficients(core, q, b)
            delta = p.delta_factor * q
            lam = p.alpha * q
            assert u * delta == lam * lam
            assert w * delta == 2 * lam * b
            assert v * delta == b * b + p.gamma * p.n0(core)
            disc = w * w - 4 * u * v
            assert disc < 0
            assert disc * delta * delta == -4 * lam * lam * p.gamma * p.n0(core)
