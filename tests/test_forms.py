import pytest
from hypothesis import given, strategies as st

from ternrep import (
    Eligibility,
    InternalError,
    TernaryForm,
    brute_force_ternary,
    eligibility,
    evaluate,
    factorize,
    lift_representation,
    ord_p,
    reduce_to_core,
)
from ternrep.forms import FORM_BY_NAME, checked_representation

ALL_FORMS = list(TernaryForm)
# Double entry: the forms whose eligibility is an equivalence.
EXACT_FORMS = {TernaryForm.D122, TernaryForm.D112}


def stripped(m):
    while m % 4 == 0:
        m //= 4
    return m


class TestTernaryForm:
    def test_coefficients(self):
        assert TernaryForm.D122.coefficients == (1, 2, 2)
        assert TernaryForm.D112.coefficients == (1, 1, 2)
        assert TernaryForm.D113.coefficients == (1, 1, 3)
        assert TernaryForm.D117.coefficients == (1, 1, 7)

    def test_exact(self):
        assert {form for form in ALL_FORMS if form.exact} == EXACT_FORMS

    def test_cli_names(self):
        assert FORM_BY_NAME == {
            "x2+2y2+2z2": TernaryForm.D122,
            "x2+y2+2z2": TernaryForm.D112,
            "x2+y2+3z2": TernaryForm.D113,
            "x2+y2+7z2": TernaryForm.D117,
        }


class TestEvaluate:
    def test_pinned_values(self):
        assert evaluate(TernaryForm.D122, (1, 1, 0)) == 3
        assert evaluate(TernaryForm.D117, (0, 0, 0)) == 0
        assert evaluate(TernaryForm.D112, (2, 0, 1)) == 6

    @given(st.sampled_from(ALL_FORMS),
           st.tuples(st.integers(-50, 50), st.integers(-50, 50),
                     st.integers(-50, 50)))
    def test_positive_definite_and_even(self, form, vec):
        value = evaluate(form, vec)
        assert value >= 0
        assert (value == 0) == (vec == (0, 0, 0))
        assert evaluate(form, tuple(-v for v in vec)) == value


class TestEligibility:
    def test_pinned_values(self):
        assert eligibility(TernaryForm.D122, 7).kind is Eligibility.OBSTRUCTED
        assert eligibility(TernaryForm.D112, 56).kind is Eligibility.OBSTRUCTED
        assert (eligibility(TernaryForm.D117, 21).kind
                is Eligibility.OUTSIDE_COVERED_CASES)
        assert eligibility(TernaryForm.D113, 9).kind is Eligibility.ELIGIBLE

    def test_rejects_zero(self):
        for form in ALL_FORMS:
            with pytest.raises(ValueError):
                eligibility(form, 0)

    def test_kind_is_form_specific(self):
        # the m a form does not cover are obstructed iff the form is exact
        for form in ALL_FORMS:
            kinds = {eligibility(form, m).kind for m in range(1, 3000)}
            not_covered = (Eligibility.OBSTRUCTED if form in EXACT_FORMS
                           else Eligibility.OUTSIDE_COVERED_CASES)
            assert kinds == {Eligibility.ELIGIBLE, not_covered}

    def test_arithmetic_criteria(self):
        for m in range(1, 3000):
            r = stripped(m)
            assert (eligibility(TernaryForm.D122, m).kind
                    is Eligibility.OBSTRUCTED) == (r % 8 == 7)
            assert (eligibility(TernaryForm.D112, m).kind
                    is Eligibility.OBSTRUCTED) == (r % 16 == 14)
            assert eligibility(TernaryForm.D117, m).eligible == (
                r % 8 == 5 and ord_p(m, 7) % 2 == 0)
            assert eligibility(TernaryForm.D113, m).eligible == (
                r % 8 == 1 and ord_p(m, 3) % 2 == 0)

    @given(st.sampled_from(ALL_FORMS), st.integers(1, 10**9))
    def test_invariant_under_factor_of_four(self, form, m):
        assert eligibility(form, 4 * m).kind is eligibility(form, m).kind

    def test_obstruction_matches_oracle(self):
        for form in (TernaryForm.D122, TernaryForm.D112):
            for m in range(1, 2000):
                obstructed = not eligibility(form, m).eligible
                assert obstructed == (brute_force_ternary(form, m) is None)

    def test_covered_cases_are_representable(self):
        for form in (TernaryForm.D113, TernaryForm.D117):
            for m in range(1, 2000):
                if eligibility(form, m).eligible:
                    assert brute_force_ternary(form, m) is not None


class TestReduceToCore:
    def test_pinned_values(self):
        assert reduce_to_core(12) == (1, 1, 3)
        assert reduce_to_core(45) == (0, 3, 5)
        assert reduce_to_core(245) == (0, 7, 5)
        assert reduce_to_core(4 * 9 * 2 * 15) == (1, 3, 30)

    def test_rejects_nonpositive(self):
        # 0 and -4 would never leave the loop that strips factors of 4
        for m in (0, -4):
            with pytest.raises(ValueError):
                reduce_to_core(m)

    def test_decomposition_shape(self):
        for form in ALL_FORMS:
            for m in range(1, 4000):
                if not eligibility(form, m).eligible:
                    continue
                k, s, core = reduce_to_core(m)
                assert 4**k * s * s * core == m
                assert s % 2 == 1
                odd = core // 2 if core % 2 == 0 else core
                assert odd % 2 == 1
                assert all(e == 1 for _, e in factorize(odd))
                assert eligibility(form, core).eligible
                if form is TernaryForm.D117:
                    assert core % 7 != 0
                if form is TernaryForm.D113:
                    assert core % 3 != 0


class TestLift:
    def test_pinned_values(self):
        assert lift_representation((1, 1, 0), 1, 1) == (2, 2, 0)
        assert lift_representation((1, 0, 1), 0, 3) == (3, 0, 3)
        assert lift_representation((2, 1, 0), 1, 3) == (12, 6, 0)

    @given(st.sampled_from(ALL_FORMS),
           st.tuples(st.integers(-20, 20), st.integers(-20, 20),
                     st.integers(-20, 20)),
           st.integers(0, 8), st.integers(1, 50))
    def test_scaling(self, form, vec, k, s):
        lifted = lift_representation(vec, k, s)
        assert evaluate(form, lifted) == 4**k * s * s * evaluate(form, vec)


class TestCheckedRepresentation:
    def test_accepts_valid(self):
        assert checked_representation(TernaryForm.D122, 3, (1, 0, 1)) == (1, 0, 1)

    def test_rejects_mismatch(self):
        with pytest.raises(InternalError):
            checked_representation(TernaryForm.D122, 4, (1, 0, 1))
