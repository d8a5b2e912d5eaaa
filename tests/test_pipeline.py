import dataclasses
import hashlib
import io
import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from ternrep import (
    Eligibility,
    InternalError,
    PRIMALITY_LIMIT,
    PROFILES,
    Construction,
    ResourceCapError,
    TernaryForm,
    Witness,
    brute_force_ternary,
    build_witness,
    eligibility,
    evaluate,
    factorize,
    find_q,
    is_prime,
    jacobi,
    reduce_to_core,
    solve_bh,
    solve_t,
    verify_witness,
    witness_problems,
)
from ternrep import pipeline
from ternrep.cli import dispatch
from ternrep.pipeline import (
    SMALL_CORE,
    _SMALL_CORE_BASE,
    composed_values,
    construction_frame,
    enumerate_point,
)

T1A = PROFILES["T1A"]
T1B = PROFILES["T1B"]
T3A = PROFILES["T3A"]
CONSTRUCTION_FIELDS = [f.name for f in dataclasses.fields(Construction)]


def primes_of(profile, core):
    return [p for p, _ in factorize(profile.n0(core))]


def edit(w, **changes):
    """dataclasses.replace that routes the Construction fields into
    w.construction."""
    inner = {name: changes.pop(name) for name in CONSTRUCTION_FIELDS
             if name in changes}
    if inner:
        changes["construction"] = dataclasses.replace(w.construction, **inner)
    return dataclasses.replace(w, **changes)


def constructive_witnesses(form, lo, hi):
    for m in range(lo, hi):
        w = build_witness(form, m)
        if isinstance(w, Witness) and w.case_id != SMALL_CORE:
            yield w


class TestFindQ:
    def test_pinned_values(self):
        assert find_q(T1A, 3, [3]) == 73
        assert find_q(T1A, 1, []) == 17
        assert find_q(T3A, 5, [5]) == 29

    def test_smallest_in_class_with_character(self):
        # independent re-derivation of the q = 73 pin: walk the class by hand
        candidates = [q for q in range(4, 74) if q % 8 == 1]
        good = [
            q for q in candidates
            if is_prime(q) and jacobi(-2 * q, 3) == 1
        ]
        assert good == [73]

    def test_character_skips_candidates(self):
        # 17 = 1 (mod 8) is prime but jacobi(-17, 5) = -1, so core 5 under
        # the odd-core x2+2y2+2z2 profile must skip it
        assert jacobi(-17, 5) == -1
        assert find_q(T1B, 5, [5]) == 41

    def test_postconditions_sample(self):
        for profile, core in [
            (T1A, 11), (T1B, 13), (PROFILES["T1C"], 6),
            (PROFILES["T1D"], 10), (PROFILES["T1E"], 14),
            (PROFILES["T2A"], 19), (PROFILES["T2B"], 23),
            (PROFILES["T2C"], 13), (T3A, 13), (PROFILES["T3B"], 17),
        ]:
            q = find_q(profile, core, primes_of(profile, core))
            r, modulus = profile.q_residue
            assert is_prime(q)
            assert q > core
            assert q % modulus == r
            odd = profile.n0(core) if profile.core_parity == "even" else core
            for p, _ in factorize(odd):
                assert jacobi(-profile.rho * profile.delta_factor * q, p) == 1

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            find_q(T1A, 3, [3], max_candidates=1)

    def test_stops_at_the_primality_limit(self):
        with pytest.raises(ResourceCapError):
            find_q(T1A, PRIMALITY_LIMIT - 2, [])

    def test_find_q_and_solve_t_never_factor(self, monkeypatch):
        # one witness per profile; q and t are recomputed from its primes
        # with factorize disabled
        runs = {}
        for form in TernaryForm:
            for w in constructive_witnesses(form, 1, 200):
                _, profile, core = construction_frame(w.form, w.core)
                runs.setdefault(profile.id, (profile, core, primes_of(profile, core), w))
        assert sorted(runs) == sorted(PROFILES)

        def no_factoring(n):
            raise AssertionError("factorize(%d) called" % n)

        monkeypatch.setattr("ternrep.pipeline.factorize", no_factoring)
        for profile, core, primes, w in runs.values():
            assert find_q(profile, core, primes) == w.construction.q
            assert solve_t(profile, primes, w.construction.q) == w.construction.t


class TestSolveT:
    def test_pinned_values(self):
        assert solve_t(T1A, [3], 73) == 1
        assert solve_t(T1A, [], 73) == 0
        assert solve_t(T1B, [], 17) == 0

    def test_congruence_holds(self):
        for profile, core in [(T1A, 11), (T1B, 13), (PROFILES["T2C"], 29),
                              (T3A, 13), (PROFILES["T3B"], 17)]:
            q = find_q(profile, core, primes_of(profile, core))
            modulus = profile.n0(core)
            t = solve_t(profile, primes_of(profile, core), q)
            assert 0 <= t < modulus
            den = profile.t_den_factor * q
            assert (t * t * den + 1) % modulus == 0

    def test_unsolvable_is_internal(self):
        # q = 17 fails the character condition at p = 5, so the congruence
        # t^2 = -1/(4q) (mod 5) has no root
        with pytest.raises(InternalError):
            solve_t(T1B, [5], 17)


class TestSolveBH:
    def test_pinned_values(self):
        assert solve_bh(T1A, 3, 73) == (17, 2)
        assert solve_bh(T1A, 1, 17) == (13, 5)

    def test_parity_and_identity(self):
        for profile, core in [
            (T1A, 11), (T1B, 13), (PROFILES["T1C"], 6), (PROFILES["T2A"], 19),
            (PROFILES["T2C"], 13), (T3A, 13), (PROFILES["T3B"], 17),
        ]:
            n0 = profile.n0(core)
            q = find_q(profile, core, primes_of(profile, core))
            b, h = solve_bh(profile, n0, q)
            assert 0 <= b < 2 * q
            assert b * b + profile.gamma * n0 == profile.d_factor * q * h
            if profile.d_factor % 2 == 0:
                assert b % 2 == profile.gamma * n0 % 2
            if profile.h_odd:
                assert h % 2 == 1

    def test_minimality(self):
        # no smaller nonnegative b has d*q dividing b^2 + gamma*n0
        for profile, core in [(T1A, 3), (T1B, 13), (PROFILES["T2C"], 13), (T3A, 13)]:
            n0 = profile.n0(core)
            q = find_q(profile, core, primes_of(profile, core))
            b, _ = solve_bh(profile, n0, q)
            d = profile.d_factor * q
            assert all((v * v + profile.gamma * n0) % d for v in range(b))


def first_point_reference(profile, core, q, t, b):
    """Naive rescan used to cross-check enumerate_point.

    Iterates the same normative order but derives the ranges from
    conservative symmetric bounds instead of the tight interval: y runs over
    y^2 < 2*delta_factor*q/gamma, twice the scan's own bound on y^2.
    """
    target = profile.n0(core)
    u, w, v = profile.binary_coefficients(core, q, b)
    c1 = profile.alpha * t * q
    c2 = b * t
    y_max = 0
    while (y_max + 1) * (y_max + 1) * profile.gamma < 2 * profile.delta_factor * q:
        y_max += 1
    budget = profile.delta_factor * q * target
    x_max = (math.isqrt(budget) + b * y_max) // (profile.alpha * q) + 1
    ys = [0]
    for ay in range(1, y_max + 1):
        ys.extend((-ay, ay))
    for y in ys:
        for x in range(-x_max, x_max + 1):
            rem = target - (u * x * x + w * x * y + v * y * y)
            if rem < 0 or rem % profile.rho != 0:
                continue
            root = math.isqrt(rem // profile.rho)
            if root * root * profile.rho != rem:
                continue
            for r_val in sorted({-root, root}):
                zn = r_val - c1 * x - c2 * y
                if zn % target == 0:
                    lattice_x = 2 * x if profile.x_substituted else x
                    return (lattice_x, y, zn // target)
    return None


class TestEnumeratePoint:
    def test_golden_point(self):
        assert enumerate_point(T1A, 3, 73, 1, 17) == (1, -4, -2)

    def test_hits_target(self):
        for form in TernaryForm:
            for w in constructive_witnesses(form, 1, 260):
                _, profile, core = construction_frame(w.form, w.core)
                con = w.construction
                point = enumerate_point(profile, core, con.q, con.t, con.b)
                _, _, f = composed_values(profile, core, con.q, con.t, con.b, point)
                assert f == profile.n0(core)

    def test_agrees_with_reference_scan(self):
        witnesses = [w for form in TernaryForm
                     for w in constructive_witnesses(form, 1, 260)]
        witnesses += [build_witness(form, m) for form, m in seeded_case_inputs(
            random.Random(2015), per_case=8, min_bits=14, max_bits=19)]
        for w in witnesses:
            _, profile, core = construction_frame(w.form, w.core)
            con = w.construction
            assert first_point_reference(profile, core, con.q, con.t, con.b) == con.point

    @given(st.sampled_from(list(TernaryForm)), st.integers(1, 2**32))
    def test_point_is_on_the_nonpositive_y_side(self, form, m):
        # F(-point) = F(point), so the scan never needs y > 0
        w = build_witness(form, m)
        assume(isinstance(w, Witness) and w.case_id != SMALL_CORE)
        _, profile, core = construction_frame(w.form, w.core)
        con = w.construction
        assert con.point[1] <= 0
        negated = tuple(-v for v in con.point)
        _, _, f = composed_values(profile, core, con.q, con.t, con.b, negated)
        assert f == profile.n0(core)

    @pytest.mark.parametrize("profile_id, core", [("T1A", 1), ("T1C", 2)])
    def test_rejects_target_below_three(self, profile_id, core):
        with pytest.raises(ValueError, match="n0 >= 3"):
            enumerate_point(PROFILES[profile_id], core, 73, 1, 17)

    def test_budget_caps_the_scan(self, monkeypatch):
        # the golden point sits at |y| = 4 and the scan's y bound is 8
        monkeypatch.setattr(pipeline, "LATTICE_STEP_BUDGET", 4)
        assert enumerate_point(T1A, 3, 73, 1, 17) == (1, -4, -2)
        monkeypatch.setattr(pipeline, "LATTICE_STEP_BUDGET", 3)
        with pytest.raises(ResourceCapError, match="budget of 3 values of"):
            enumerate_point(T1A, 3, 73, 1, 17)
        out, err = io.StringIO(), io.StringIO()
        code = dispatch(["witness", "--form", "x2+2y2+2z2", "--m", "3", "--json"],
                        out, err)
        assert (code, out.getvalue()) == (5, "")
        assert err.getvalue().startswith("resource cap: lattice scan for core 3")

    def test_substituted_lattice_coordinate_is_even(self):
        for w in constructive_witnesses(TernaryForm.D122, 1, 300):
            _, profile, _ = construction_frame(w.form, w.core)
            con = w.construction
            if profile.x_substituted:
                assert con.point[0] % 2 == 0


class TestBuildWitness:
    def test_golden_fixture(self):
        w = build_witness(TernaryForm.D122, 3)
        assert isinstance(w, Witness)
        con = w.construction
        assert (con.q, con.t, con.b, con.h) == (73, 1, 17, 2)
        assert con.point == (1, -4, -2)
        assert con.r1 == -1
        assert con.n == 1
        assert con.binary == (1, 0)
        assert w.representation == (1, 0, 1)
        assert w.case_id == "T1A"
        assert (w.k, w.s, w.core) == (0, 1, 3)

    def test_verdict_passthrough(self):
        verdict = build_witness(TernaryForm.D122, 7)
        assert verdict.kind is Eligibility.OBSTRUCTED
        verdict = build_witness(TernaryForm.D117, 11)
        assert verdict.kind is Eligibility.OUTSIDE_COVERED_CASES

    def test_small_core_path(self):
        w = build_witness(TernaryForm.D113, 4)
        assert w.case_id == SMALL_CORE
        assert w.core == 1
        assert w.construction is None
        assert evaluate(TernaryForm.D113, w.representation) == 4

    def test_small_core_bases_are_oracle_first_hits(self):
        for (form, core), base in _SMALL_CORE_BASE.items():
            assert base == brute_force_ternary(form, core)
        small = set()
        for form in TernaryForm:
            for m in range(1, 20001):
                if eligibility(form, m).eligible:
                    core = reduce_to_core(form, m)[2]
                    if core <= 2:
                        small.add((form, core))
        assert small == set(_SMALL_CORE_BASE)

    def test_smallest_covered_d117(self):
        w = build_witness(TernaryForm.D117, 5)
        assert w.case_id == "T3A"
        assert evaluate(TernaryForm.D117, w.representation) == 5

    def test_delegation(self):
        w = build_witness(TernaryForm.D112, 6)
        assert w.case_id == "T2D"
        inner = build_witness(TernaryForm.D122, 3)
        assert w.construction == inner.construction
        assert w.representation == (0, 2, 1)
        assert evaluate(TernaryForm.D112, w.representation) == 6

    def test_lift(self):
        w = build_witness(TernaryForm.D122, 4 * 9 * 3)
        assert (w.k, w.s, w.core) == (1, 3, 3)
        assert w.representation == (6, 0, 6)

    def test_resource_cap_propagates(self):
        with pytest.raises(ResourceCapError):
            build_witness(TernaryForm.D122, 3, max_candidates=1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_witness(TernaryForm.D122, 0)

    def test_deterministic(self):
        for form in TernaryForm:
            for m in (97, 194, 388, 3880):
                assert build_witness(form, m) == build_witness(form, m)


WITNESS_FIELDS = [f.name for f in dataclasses.fields(Witness)]
FUZZ_WITNESSES = [build_witness(form, m) for form, m in (
    (TernaryForm.D122, 3), (TernaryForm.D122, 1), (TernaryForm.D112, 6),
    (TernaryForm.D113, 4), (TernaryForm.D117, 5), (TernaryForm.D122, 48))]
_FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**64, 2**64),
    st.floats(allow_nan=True), st.text(max_size=3),
    st.sampled_from(list(TernaryForm)),
)
FUZZ_VALUES = st.one_of(
    _FUZZ_SCALARS,
    st.lists(_FUZZ_SCALARS, max_size=4).map(tuple),
    st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=3).map(tuple),
    st.lists(st.integers(-10**6, 10**6), max_size=3),
)


class TestVerifyWitness:
    def test_accepts_pipeline_output(self):
        for form in TernaryForm:
            for m in range(1, 400):
                w = build_witness(form, m)
                if isinstance(w, Witness):
                    assert witness_problems(w) == []
                    assert verify_witness(w)

    def test_corrupted_h(self):
        w = build_witness(TernaryForm.D122, 3)
        bad = edit(w, h=w.construction.h + 1)
        assert not verify_witness(bad)
        assert any("d*h" in p for p in witness_problems(bad))

    def test_zero_point(self):
        w = build_witness(TernaryForm.D122, 3)
        bad = edit(w, point=(0, 0, 0))
        assert not verify_witness(bad)
        assert any("zero" in p for p in witness_problems(bad))

    def test_corrupted_q(self):
        w = build_witness(TernaryForm.D122, 3)
        bad = edit(w, q=w.construction.q + 8)  # 81 stays in the class
        assert not verify_witness(bad)

    def test_corrupted_t(self):
        w = build_witness(TernaryForm.D122, 11)
        bad = edit(w, t=w.construction.t + 1)
        assert not verify_witness(bad)

    def test_corrupted_b_parity(self):
        w = build_witness(TernaryForm.D122, 3)
        bad = edit(w, b=w.construction.b + 1)
        assert not verify_witness(bad)

    def test_corrupted_representation(self):
        w = build_witness(TernaryForm.D122, 3)
        bad = dataclasses.replace(w, representation=(1, 1, 1))
        assert not verify_witness(bad)

    def test_corrupted_case_id(self):
        w = build_witness(TernaryForm.D122, 3)
        bad = dataclasses.replace(w, case_id="T1B")
        assert not verify_witness(bad)

    def test_corrupted_binary(self):
        w = build_witness(TernaryForm.D122, 11)
        bad = edit(w, binary=(w.construction.binary[0] + 1, w.construction.binary[1]))
        assert not verify_witness(bad)

    def test_corrupted_scale(self):
        w = build_witness(TernaryForm.D122, 12)
        bad = dataclasses.replace(w, s=3)
        assert not verify_witness(bad)

    def test_unknown_case(self):
        w = build_witness(TernaryForm.D122, 3)
        bad = dataclasses.replace(w, case_id="T9Z")
        assert not verify_witness(bad)
        assert any("unknown case" in p for p in witness_problems(bad))

    @pytest.mark.parametrize("form, m, core", [
        (TernaryForm.D122, 3, 7),
        (TernaryForm.D122, 3, 15),
        (TernaryForm.D112, 6, 14),
    ])
    def test_uncovered_core(self, form, m, core):
        w = build_witness(form, m)
        bad = dataclasses.replace(w, core=core)
        assert not verify_witness(bad)
        assert "no case covers core %d" % core in witness_problems(bad)

    @pytest.mark.parametrize("form, m, core", [
        (TernaryForm.D112, 6, 4),
        (TernaryForm.D112, 6, 12),
        (TernaryForm.D112, 6, 20),
    ])
    def test_misshapen_core(self, form, m, core):
        w = build_witness(form, m)
        bad = dataclasses.replace(w, core=core)
        assert not verify_witness(bad)
        assert ("core is not squarefree of the expected shape"
                in witness_problems(bad))

    @pytest.mark.parametrize("field, value, problem", [
        ("k", -1, "k < 0"),
        ("q", 0, "q is not prime"),
        ("q", 1, "q is not prime"),
        ("q", 2**89 - 1, "q is beyond the proven primality range"),
    ])
    def test_out_of_range_field(self, field, value, problem):
        w = build_witness(TernaryForm.D112, 6)
        bad = edit(w, **{field: value})
        assert not verify_witness(bad)
        assert problem in witness_problems(bad)

    @pytest.mark.parametrize("core", [2**89 - 1, 2 * (2**89 - 1)])
    def test_core_beyond_primality_range(self, core):
        w = build_witness(TernaryForm.D122, 3)
        bad = dataclasses.replace(w, core=core)
        assert not verify_witness(bad)
        assert ("core is beyond the proven primality range"
                in witness_problems(bad))

    @pytest.mark.parametrize("form, m, changes, problem", [
        (TernaryForm.D113, 4,
         dict(construction=build_witness(TernaryForm.D122, 3).construction),
         "small-core witness carries construction fields"),
        (TernaryForm.D122, 1, dict(representation=(-1, 0, 0)),
         "representation does not match the small-core base"),
        (TernaryForm.D122, 1, dict(core=5), "no small-core base for core 5"),
        (TernaryForm.D122, 6, dict(point=(3, -4, 5)),
         "lattice x must be even for profile T1C"),
        (TernaryForm.D122, 6, dict(point=()), None),
        (TernaryForm.D122, 3, dict(representation=(1, 0)),
         "representation is not a triple"),
        (TernaryForm.D113, 4, dict(representation=(1, 0)),
         "representation is not a triple"),
        (TernaryForm.D122, 3, dict(binary=(1,)), "binary rep is not a pair"),
        (TernaryForm.D122, 3, dict(binary=(1, 0, 0)), "binary rep is not a pair"),
        (TernaryForm.D122, 3, dict(construction=(73, 1)),
         "construction is not a Construction"),
        (TernaryForm.D122, 3, dict(construction=None),
         "construction fields are incomplete"),
        (TernaryForm.D122, 27, dict(s=-3, representation=(-3, 0, -3)),
         "s is not a positive odd integer"),
        (TernaryForm.D122, 1, dict(s=-1, representation=(-1, 0, 0)),
         "s is not a positive odd integer"),
    ], ids=["small-core-stray-fields", "small-core-other-representation",
            "small-core-no-base", "odd-lattice-x", "empty-point",
            "representation-pair", "small-core-representation-pair",
            "binary-single", "binary-triple", "construction-tuple",
            "construction-missing", "negative-s", "small-core-negative-s"])
    def test_hand_edited(self, form, m, changes, problem):
        bad = edit(build_witness(form, m), **changes)
        assert not verify_witness(bad)
        if problem is not None:
            assert problem in witness_problems(bad)

    @pytest.mark.parametrize("changes, problem", [
        (dict(representation=None), "representation is not a triple"),
        (dict(point=5), "point is not a triple"),
        (dict(q="x"), "q is not an integer"),
        (dict(point=(1.5, 2, 3)), "point has a non-integer entry"),
        (dict(point=[1, -4, -2]), "point is not a triple"),
        (dict(representation=(True, 0, 1)), "representation has a non-integer entry"),
        (dict(k=False), "k is not an integer"),
        (dict(m=3.0), "m is not an integer"),
        (dict(binary=(1.0, 0)), "binary rep has a non-integer entry"),
        (dict(form="x2+2y2+2z2"), "form is not a TernaryForm"),
        (dict(case_id=None), "case id is not a string"),
        (dict(k=2**80), "4^k * s^2 * core != m"),
    ], ids=["representation-none", "point-int", "q-str", "point-floats",
            "point-list", "representation-bool", "k-bool", "m-float",
            "binary-float", "form-str", "case-id-none", "k-huge"])
    def test_wrongly_typed_field(self, changes, problem):
        bad = edit(build_witness(TernaryForm.D122, 3), **changes)
        assert witness_problems(bad) == [problem]
        assert not verify_witness(bad)

    @given(st.sampled_from(FUZZ_WITNESSES),
           st.dictionaries(st.sampled_from(WITNESS_FIELDS), FUZZ_VALUES,
                           max_size=3),
           st.dictionaries(st.sampled_from(CONSTRUCTION_FIELDS), FUZZ_VALUES,
                           max_size=3))
    def test_field_type_fuzz_raises_nothing(self, w, changes, inner):
        # inner edits the Construction of a constructed witness
        edits = [(getattr(w, k), v) for k, v in changes.items()]
        bad = dataclasses.replace(w, **changes)
        if w.construction is not None and inner and "construction" not in changes:
            edits += [(getattr(w.construction, k), v) for k, v in inner.items()]
            bad = edit(bad, **inner)
        assume(edits)
        problems = witness_problems(bad)
        assert isinstance(problems, list)
        assert all(isinstance(p, str) for p in problems)
        if any(type(new) is not type(old) for old, new in edits):
            assert problems

    def test_every_substituted_core_is_judged(self):
        by_case = {}
        for form in TernaryForm:
            for w in constructive_witnesses(form, 1, 200):
                by_case.setdefault(w.case_id, w)
        for w in by_case.values():
            for core in range(-2, 80):
                bad = dataclasses.replace(w, core=core)
                assert verify_witness(bad) == (core == w.core)


class TestWitnessIdentities:
    def test_congruence_at_six_points(self):
        # F(e_i) and F(e_i + e_j) fix every coefficient of the quadratic
        # form F, so F = 0 (mod n0) at these six points proves it everywhere
        six_points = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))
        for form in TernaryForm:
            for w in constructive_witnesses(form, 1, 200):
                _, profile, core = construction_frame(w.form, w.core)
                con = w.construction
                scale = 2 if profile.x_substituted else 1  # lattice x = 2x'
                for x, y, z in six_points:
                    point = (scale * x, y, z)
                    _, _, f = composed_values(profile, core, con.q, con.t, con.b, point)
                    assert f % profile.n0(core) == 0, (w.m, point)

    def test_binary_part_positive_definite(self):
        for form in TernaryForm:
            for w in constructive_witnesses(form, 1, 300):
                _, profile, core = construction_frame(w.form, w.core)
                con = w.construction
                u, wc, v = profile.binary_coefficients(core, con.q, con.b)
                assert u > 0 and v > 0
                assert wc * wc - 4 * u * v < 0

    def test_descent_character_on_odd_power_primes(self):
        # v = d*q*n; every odd prime other than q dividing v to an odd
        # power must pass jacobi(-c, p) = 1
        for form in TernaryForm:
            for w in constructive_witnesses(form, 1, 300):
                _, profile, _ = construction_frame(w.form, w.core)
                con = w.construction
                if con.n == 0:
                    continue
                v = profile.d_factor * con.q * con.q * con.n
                for p, e in factorize(v):
                    if p in (2, con.q, profile.c) or e % 2 == 0:
                        continue
                    assert jacobi(-profile.c, p) == 1

    def test_r_and_binary_recomputed(self):
        for form in TernaryForm:
            for w in constructive_witnesses(form, 1, 200):
                _, profile, core = construction_frame(w.form, w.core)
                con = w.construction
                r1, n, f = composed_values(profile, core, con.q, con.t, con.b, con.point)
                assert (r1, n) == (con.r1, con.n)
                assert f == profile.n0(core)
                a, beta = con.binary
                assert a * a + profile.c * beta * beta == con.n


class TestRepresentabilityAtSmallScale:
    def test_equivalence_forms(self):
        for form, modulus, bad in ((TernaryForm.D122, 8, 7),
                                   (TernaryForm.D112, 16, 14)):
            for m in range(1, 1200):
                stripped = m
                while stripped % 4 == 0:
                    stripped //= 4
                w = build_witness(form, m)
                if stripped % modulus == bad:
                    assert not isinstance(w, Witness)
                else:
                    assert isinstance(w, Witness)
                    assert evaluate(form, w.representation) == m

    def test_sufficiency_forms(self):
        for form in (TernaryForm.D113, TernaryForm.D117):
            for m in range(1, 1200):
                if eligibility(form, m).eligible:
                    w = build_witness(form, m)
                    assert isinstance(w, Witness)
                    assert evaluate(form, w.representation) == m

    @given(st.sampled_from(list(TernaryForm)), st.integers(1, 10**7))
    def test_any_witness_evaluates(self, form, m):
        w = build_witness(form, m)
        if isinstance(w, Witness):
            assert evaluate(form, w.representation) == m
            assert verify_witness(w)


PINNED_CASE_IDS = ("T1A", "T1B", "T1C", "T1D", "T1E", "T2A", "T2B", "T2C",
                   "T2D", "T3A", "T3B", SMALL_CORE)


def case_of(form, m):
    """Case id of an eligible m, from its core alone (no witness is built)."""
    if not eligibility(form, m).eligible:
        return None
    core = reduce_to_core(form, m)[2]
    if (form, core) in _SMALL_CORE_BASE:
        return SMALL_CORE
    return construction_frame(form, core)[0]


def seeded_case_inputs(rng, per_case, min_bits, max_bits):
    """per_case eligible (form, m) of min_bits to max_bits bits for every
    constructive case id, drawn from rng."""
    inputs = []
    for case_id in PINNED_CASE_IDS:
        if case_id == SMALL_CORE:
            continue
        form = TernaryForm.D112 if case_id == "T2D" else PROFILES[case_id].form
        found = 0
        while found < per_case:
            bits = rng.randint(min_bits, max_bits)
            m = rng.getrandbits(bits) | 1 << (bits - 1)
            if case_of(form, m) == case_id:
                inputs.append((form, m))
                found += 1
    return inputs


def pinned_inputs():
    """Every m <= 2000 of all four forms, then three seeded m of 26 to 40
    bits per case id."""
    inputs = [(form, m) for form in TernaryForm for m in range(1, 2001)]
    rng = random.Random(20261018)
    inputs += seeded_case_inputs(rng, per_case=3, min_bits=26, max_bits=40)
    small = sorted(_SMALL_CORE_BASE, key=lambda key: (key[0].cli_name, key[1]))
    for _ in range(3):
        bits = rng.randint(26, 40)
        form, core = rng.choice(small)
        s = rng.getrandbits(bits // 2) | 1 << (bits // 2 - 1) | 1
        inputs.append((form, core * s * s))
    return inputs


# sha256 of the concatenated `witness --form F --m M --json` stdout over
# pinned_inputs(): any change to a witness, its JSON or a verdict shows here.
PINNED_WITNESS_SHA256 = "7f718611760b95d906b27e1bd928601ea5fcc63dc0cbdbe381b6acac714089ba"


class TestPinnedBytes:
    def test_witness_json_bytes(self):
        inputs = pinned_inputs()
        assert {case_of(form, m) for form, m in inputs} >= set(PINNED_CASE_IDS)
        digest = hashlib.sha256()
        for form, m in inputs:
            out = io.StringIO()
            dispatch(["witness", "--form", form.cli_name, "--m", str(m), "--json"],
                     out, io.StringIO())
            digest.update(out.getvalue().encode())
        assert digest.hexdigest() == PINNED_WITNESS_SHA256

    def test_completed_square_identity(self):
        # delta*(u x^2 + w xy + v y^2) = (lam x + b y)^2 + gamma*n0*y^2 with
        # delta = delta_factor*q and lam = alpha*q, the identity the lattice
        # scan searches by, on the (q, b, h) the pipeline picks
        rng = random.Random(7)
        runs = {}
        for form in TernaryForm:
            for w in constructive_witnesses(form, 1, 400):
                _, profile, core = construction_frame(w.form, w.core)
                runs.setdefault(profile.id, {}).setdefault(core, w.construction)
        assert sorted(runs) == sorted(PROFILES)
        for profile_id, by_core in runs.items():
            profile = PROFILES[profile_id]
            assert len(by_core) >= 3
            for core, con in sorted(by_core.items())[:3]:
                u, wc, v = profile.binary_coefficients(core, con.q, con.b)
                delta = profile.delta_factor * con.q
                lam = profile.alpha * con.q
                gn = profile.gamma * profile.n0(core)
                for _ in range(50):
                    x, y = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
                    assert (delta * (u * x * x + wc * x * y + v * y * y)
                            == (lam * x + con.b * y) ** 2 + gn * y * y)
