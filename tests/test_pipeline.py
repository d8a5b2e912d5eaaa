import hashlib
import io
import itertools
import json
import math
import pickle
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from ternrep import (
    Eligibility,
    InternalError,
    PRIMALITY_LIMIT,
    PROFILES,
    Construction,
    ResourceCapError,
    SCAN_HI_LIMIT,
    ScanReport,
    ScanRow,
    TernaryForm,
    Witness,
    brute_force_ternary,
    build_witness,
    eligibility,
    evaluate,
    factorize,
    find_q,
    is_prime,
    reduce_to_core,
    scan_compare,
    solve_bh,
    solve_t,
    verify_witness,
    witness_problems,
)
from ternrep import lattice, pipeline
from ternrep.cli import dispatch
from ternrep.forms import FORM_BY_NAME
from ternrep.pipeline import (
    CONSTRUCTION_KEYS,
    SMALL_CORE,
    WITNESS_KEYS,
    _SMALL_CORE_BASE,
    construction_frame,
    enumerate_point,
    witness_fields,
    witness_from_fields,
)
from ternrep.lattice import SCAN_Y_LIMIT, composed_values

from reference import binary_coefficients, composed_reference, gram_schmidt, jacobi

T1A = PROFILES["T1A"]
T1B = PROFILES["T1B"]
T3A = PROFILES["T3A"]
CONSTRUCTION_FIELDS = [attr for _, attr, _ in CONSTRUCTION_KEYS]


def primes_of(profile, core):
    return [p for p, _ in factorize(profile.n0(core))]


def edit(w, **changes):
    """w._replace that routes the Construction fields into
    w.construction."""
    inner = {name: changes.pop(name) for name in CONSTRUCTION_FIELDS
             if name in changes}
    if inner:
        changes["construction"] = w.construction._replace(**inner)
    return w._replace(**changes)


# The JSON key of each Witness or Construction field
JSON_KEY = {"case_id": "case"} | {attr: key for key, attr, _ in CONSTRUCTION_KEYS}


def json_edit(w, **changes):
    """The witness JSON text of w with changes applied to its object under
    the fields' keys; None when a change has no JSON text apart from the
    correct one: a form given by its name, a list, or a construction that
    is neither None nor a Construction."""
    doc = witness_fields(w)
    for name, value in changes.items():
        if isinstance(value, list) or name == "form" and value in FORM_BY_NAME:
            return None
        if name == "construction":
            if value is not None and not isinstance(value, Construction):
                return None
            doc.update((key, None if value is None else getattr(value, attr))
                       for key, attr, _ in CONSTRUCTION_KEYS)
        else:
            doc[JSON_KEY.get(name, name)] = (
                value.cli_name if isinstance(value, TernaryForm) else value)
    return json.dumps(doc)


def run_verify(text):
    """(exit code, stdout, stderr) of `ternrep verify` with text on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        code = dispatch(["verify"], out, err)
    return code, out.getvalue(), err.getvalue()


def rejected(w, **changes):
    """The problems of w under changes, after checking that they reject the
    edited Witness and that `ternrep verify` prints the same problems and
    exits 1 on the edited witness JSON, where it has one."""
    bad = edit(w, **changes)
    problems = witness_problems(bad)
    assert problems and not verify_witness(bad)
    text = json_edit(w, **changes)
    if text is not None:
        assert run_verify(text) == (1, "".join(p + "\n" for p in problems), "")
    return problems


def constructive_witnesses(form, lo, hi):
    for m in range(lo, hi):
        w = build_witness(form, m)
        if isinstance(w, Witness) and w.case_id != SMALL_CORE:
            yield w


def constructions_up_to(hi):
    """(frame profile, frame core, Construction) of every construction with
    m <= hi, of all four forms."""
    for form in TernaryForm:
        for w in constructive_witnesses(form, 1, hi + 1):
            _, profile, core = construction_frame(form, w.core)
            yield profile, core, w.construction


def seeded_frames(rng, bits):
    """(profile, frame core, q, t, b) of one seeded m of the given bit size
    for every constructive case id, drawn from rng."""
    frames = []
    for form, m in seeded_case_inputs(rng, per_case=1, min_bits=bits, max_bits=bits):
        _, profile, core = construction_frame(form, reduce_to_core(m)[2])
        primes = primes_of(profile, core)
        q = find_q(profile, core, primes)
        b, _ = solve_bh(profile, profile.n0(core), q)
        frames.append((profile, core, q, solve_t(profile, primes, q), b))
    return frames


def frames_at_limit(rng, above, per_case):
    """per_case frames of every constructive case id whose y bound lies
    within 32 above SCAN_Y_LIMIT, or within 32 at or below it."""
    lo, hi = (SCAN_Y_LIMIT + 1, SCAN_Y_LIMIT + 32) if above else (SCAN_Y_LIMIT - 31, SCAN_Y_LIMIT)
    return frames_with_bound(rng, lo, hi, per_case)


def frames_with_bound(rng, lo, hi, per_case):
    """per_case (profile, frame core, q, t, b) for every constructive case
    id whose y bound isqrt(delta_factor*q // gamma) lies in [lo, hi],
    drawn from rng.  T2D's frames are T1A's on m1 = core / 2."""
    frames = []
    for case_id in PINNED_CASE_IDS[:-1]:
        form = TernaryForm.D112 if case_id == "T2D" else PROFILES[case_id].form
        target = PROFILES["T1A" if case_id == "T2D" else case_id]
        scale = 2 if case_id == "T2D" else 1
        # q is the first fitting prime above the frame core, so frame cores
        # just below the window of q mostly give a q inside it
        q_lo = -(-target.gamma * lo * lo // target.delta_factor)
        q_hi = target.gamma * (hi + 1) ** 2 // target.delta_factor
        found = 0
        while found < per_case:
            m = scale * rng.randrange(q_lo - 2000, q_hi)
            if case_of(form, m) != case_id:
                continue
            _, profile, core = construction_frame(form, reduce_to_core(m)[2])
            primes = primes_of(profile, core)
            q = find_q(profile, core, primes)
            if lo <= math.isqrt(profile.delta_factor * q // profile.gamma) <= hi:
                b, _ = solve_bh(profile, profile.n0(core), q)
                frames.append((profile, core, q, solve_t(profile, primes, q), b))
                found += 1
    return frames


def eligible_frames(cores):
    """{(profile id, frame core)} of the eligible constructive cores among
    cores, where a T2D core 2*m1 counts with its frame core m1 in cores."""
    frames = set()
    for form in TernaryForm:
        even = [2 * c for c in cores] if form is TernaryForm.D112 else []
        for core in itertools.chain(cores, even):
            if (eligibility(form, core).eligible
                    and reduce_to_core(core) == (0, 1, core)
                    and (form, core) not in _SMALL_CORE_BASE):
                _, profile, frame_core = construction_frame(form, core)
                if frame_core in cores:
                    frames.add((profile.id, frame_core))
    return frames


def assert_matches_jacobi_search(profile, core):
    """find_q against a copy of the search that walks q's class and tests
    is_prime, then each character with jacobi."""
    primes = primes_of(profile, core)
    r, modulus = profile.q_residue
    q = max(core, 2) + 1
    q += (r - q) % modulus
    while not (is_prime(q) and all(
            jacobi(-profile.t_den_factor * q, p) == 1 for p in primes)):
        q += modulus
    assert find_q(profile, core, primes) == q, (profile.id, core)


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

    def test_matches_a_jacobi_search_to_20000(self):
        # every eligible frame core <= 20000 of each profile
        frames = eligible_frames(range(1, 20001))
        assert {profile_id for profile_id, _ in frames} == set(PROFILES)
        for profile_id, core in sorted(frames):
            assert_matches_jacobi_search(PROFILES[profile_id], core)

    def test_matches_a_jacobi_search_across_the_table_limit(self):
        # find_q reads primality from the table below TABLE_LIMIT = 2^16 and
        # tests the characters first from there up
        frames = eligible_frames(range(2**16 - 3000, 2**16 + 3001))
        assert {profile_id for profile_id, _ in frames} == set(PROFILES)
        for profile_id, core in sorted(frames):
            assert_matches_jacobi_search(PROFILES[profile_id], core)

    def test_matches_a_jacobi_search_on_seeded_cores(self):
        rng = random.Random(2116)
        forms = list(TernaryForm)
        found = 0
        while found < 200:
            bits = rng.randint(24, 40)
            form = rng.choice(forms)
            m = rng.getrandbits(bits) | 1 << (bits - 1)
            if eligibility(form, m).eligible:
                _, profile, core = construction_frame(form, reduce_to_core(m)[2])
                if core.bit_length() >= 24:
                    assert_matches_jacobi_search(profile, core)
                    found += 1

    def test_matches_a_jacobi_search_on_large_seeded_cores(self):
        # from 2^16 up find_q sieves q's class in windows; cores of 40 to 80
        # bits, where q often lies past the first window
        rng = random.Random(2117)
        forms = list(TernaryForm)
        found = 0
        while found < 120:
            bits = rng.randint(40, 80)
            form = rng.choice(forms)
            m = rng.getrandbits(bits) | 1 << (bits - 1)
            if eligibility(form, m).eligible:
                _, profile, core = construction_frame(form, reduce_to_core(m)[2])
                if core.bit_length() >= 40:
                    assert_matches_jacobi_search(profile, core)
                    found += 1

    @pytest.mark.parametrize("profile_id, core, index", [
        ("T1C", 1082130, 255), ("T2B", 1053303, 255), ("T3A", 1019573, 255),
        ("T1B", 1090873, 256), ("T3A", 1096845, 256), ("T3B", 1042457, 512),
    ])
    def test_q_at_the_edge_of_a_sieve_window(self, profile_id, core, index):
        # q is the last value of a window (index 255) or the first of the
        # next one, counted in values of q's class from the first one > core
        profile = PROFILES[profile_id]
        r, modulus = profile.q_residue
        first = core + 1 + (r - core - 1) % modulus
        q = find_q(profile, core, primes_of(profile, core))
        assert first >= 2**16 and q == first + index * modulus
        assert index % pipeline._Q_WINDOW in (0, pipeline._Q_WINDOW - 1)
        assert_matches_jacobi_search(profile, core)

    def test_a_sieved_value_at_the_primality_limit_stops_the_search(self, monkeypatch):
        # q is the 513th value of its class, in the third window.  The limit
        # is put on the last value before q that the sieve marks, with the
        # budget ending at that value, so that the search must stop there;
        # then on q itself, and just past q.
        profile, core = PROFILES["T3B"], 1042457
        primes = primes_of(profile, core)
        q = find_q(profile, core, primes)
        r, modulus = profile.q_residue
        sieve_primes = [p for p in range(3, pipeline._Q_SIEVE_BOUND, 2)
                        if is_prime(p) and modulus % p]
        values = [v for v in range(core + 1, q) if v % modulus == r]
        last = max(i for i, v in enumerate(values) if any(v % p == 0 for p in sieve_primes))
        assert last >= pipeline._Q_WINDOW
        message = "no auxiliary prime for core %d below the proven primality bound" % core
        for limit, budget in ((values[last], last + 1), (q, len(values) + 1)):
            monkeypatch.setattr(pipeline, "PRIMALITY_LIMIT", limit)
            monkeypatch.setattr(pipeline, "Q_CANDIDATE_BUDGET", budget)
            with pytest.raises(ResourceCapError, match="^%s$" % re.escape(message)):
                find_q(profile, core, primes)
        monkeypatch.setattr(pipeline, "PRIMALITY_LIMIT", q + 1)
        assert find_q(profile, core, primes) == q

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(pipeline, "Q_CANDIDATE_BUDGET", 1)
        with pytest.raises(ResourceCapError, match="within 1 candidates"):
            find_q(T1A, 3, [3])

    def test_budget_headroom_at_the_scan_limit(self, monkeypatch):
        # The core that needs the most candidates of every eligible core up
        # to SCAN_HI_LIMIT = 2^22, over all four forms: 3,307, 300 times
        # below Q_CANDIDATE_BUDGET.
        core = 3293745
        assert core <= SCAN_HI_LIMIT
        primes = primes_of(T1B, core)
        monkeypatch.setattr(pipeline, "Q_CANDIDATE_BUDGET", 3307)
        assert find_q(T1B, core, primes) == 3320201
        monkeypatch.setattr(pipeline, "Q_CANDIDATE_BUDGET", 3306)
        with pytest.raises(ResourceCapError):
            find_q(T1B, core, primes)

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
            assert 0 <= b < q
            assert b * b + profile.gamma * n0 == profile.d_factor * q * h
            if profile.d_factor % 2 == 0:
                assert b % 2 == profile.gamma * n0 % 2
            if profile.d_factor == 4:
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
    conservative bounds instead of the scan's shrinking interval: y runs
    over y^2 < 2*delta_factor*q/gamma, twice the scan's own bound on y^2,
    and x over |alpha*q*x + b*y| <= isqrt(delta_factor*q*n0) + alpha*q, one
    step of x past the bound that every point with F = n0 meets at y = 0.
    """
    target = profile.n0(core)
    u, w, v = binary_coefficients(profile, core, q, b)
    c1 = profile.alpha * t * q
    c2 = b * t
    y_max = 0
    while (y_max + 1) * (y_max + 1) * profile.gamma < 2 * profile.delta_factor * q:
        y_max += 1
    lam = profile.alpha * q
    s = math.isqrt(profile.delta_factor * q * target)
    ys = [0]
    for ay in range(1, y_max + 1):
        ys.extend((-ay, ay))
    for y in ys:
        for x in range((-s - b * y) // lam - 1, (s - b * y) // lam + 2):
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
        rng = random.Random(2015)
        witnesses += [build_witness(form, m) for form, m in seeded_case_inputs(
            rng, per_case=8, min_bits=14, max_bits=19)]
        # q is mostly above 2^20 here, and some hits lie past |y| = 3000
        witnesses += [build_witness(form, m) for form, m in seeded_case_inputs(
            rng, per_case=6, min_bits=22, max_bits=26)]
        for w in witnesses:
            _, profile, core = construction_frame(w.form, w.core)
            con = w.construction
            assert first_point_reference(profile, core, con.q, con.t, con.b) == con.point

    # Two frames with q > 2^20, far above SCAN_Y_LIMIT, whose hits lie at
    # |y| = 938 and 625, past the first |y| where the budget delta*n0 -
    # gamma*n0*y^2 has fallen below (isqrt(delta*n0) - lam//4)^2, that is,
    # after the point where a scan carrying s = isqrt(delta*n0) from y = 0
    # would have to refresh it: the reduction returns the reference scan's
    # point that far along the order
    @pytest.mark.parametrize("form, m", [(TernaryForm.D112, 3646777),
                                         (TernaryForm.D117, 5910740)])
    def test_hit_after_a_refresh(self, form, m):
        w = build_witness(form, m)
        _, profile, core = construction_frame(form, w.core)
        con = w.construction
        n0 = profile.n0(core)
        budget = profile.delta_factor * con.q * n0
        floor = (math.isqrt(budget) - profile.alpha * con.q // 4) ** 2
        first = next(ay for ay in itertools.count()
                     if budget - profile.gamma * n0 * ay * ay < floor)
        assert con.q > 2**20 and first <= -con.point[1]
        assert math.isqrt(profile.delta_factor * con.q // profile.gamma) > SCAN_Y_LIMIT
        assert first_point_reference(profile, core, con.q, con.t, con.b) == con.point
        assert enumerate_point(profile, core, con.q, con.t, con.b) == con.point

    def test_scan_finds_hits_in_the_last_third_of_the_bound(self):
        # frames with bound <= SCAN_Y_LIMIT whose hit lies at |y| > 2/3 of
        # the bound, where the budget and s = isqrt(budget) are furthest
        # below their values at y = 0: the scan, the reference scan and
        # the reduction return the same point
        rng = random.Random(30)
        late = 0
        while late < 8:
            for frame in frames_with_bound(rng, SCAN_Y_LIMIT // 2, SCAN_Y_LIMIT, 1):
                profile, _, q, _, _ = frame
                bound = math.isqrt(profile.delta_factor * q // profile.gamma)
                point = lattice._scan_point(*frame)
                if 3 * -point[1] > 2 * bound:
                    late += 1
                    assert lattice._reduced_point(*frame) == point
                    x, y, z = point
                    assert first_point_reference(*frame) == (
                        2 * x if profile.x_substituted else x, y, z)

    @given(st.sampled_from(list(TernaryForm)), st.integers(1, 2**64 - 1))
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

    def test_scan_runs_only_up_to_the_limit(self, monkeypatch):
        # The scan visits |y| <= isqrt(delta_factor*q // gamma) only, and
        # enumerate_point runs it only while that bound is at most
        # SCAN_Y_LIMIT; above it the reduction runs and the scan does not.
        ran = []
        for name in ("_scan_point", "_reduced_point"):
            def record(*args, _name=name, _fn=getattr(lattice, name)):
                ran.append(_name)
                return _fn(*args)
            monkeypatch.setattr(lattice, name, record)
        frames = [frame for above in (False, True)
                  for frame in frames_at_limit(random.Random(24), above, 1)]
        frames += [(profile, core, con.q, con.t, con.b) for profile, core, con
                   in constructions_up_to(400)]
        for profile, core, q, t, b in frames:
            ran.clear()
            point = enumerate_point(profile, core, q, t, b)
            bound = math.isqrt(profile.delta_factor * q // profile.gamma)
            if bound <= SCAN_Y_LIMIT:
                assert ran == ["_scan_point"] and -point[1] <= bound
            else:
                assert ran == ["_reduced_point"]

    def test_scan_and_reduction_agree_on_small_constructions(self):
        # both return x' = x/2 in the substituted profiles
        for profile, core, con in constructions_up_to(5000):
            args = (profile, core, con.q, con.t, con.b)
            x, y, z = lattice._scan_point(*args)
            assert lattice._reduced_point(*args) == (x, y, z)
            assert (2 * x if profile.x_substituted else x, y, z) == con.point

    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    def test_scan_and_reduction_agree_at_the_limit(self, above):
        # three frames per case id within 32 of SCAN_Y_LIMIT on each side:
        # T1B and T2C step |y| by 2, T1C-T1E double x, T2D runs T1A on core/2
        frames = frames_at_limit(random.Random(2015 + above), above, 3)
        assert {profile.id for profile, *_ in frames} == set(PROFILES)
        for frame in frames:
            scanned = lattice._scan_point(*frame)
            assert scanned is not None
            assert lattice._reduced_point(*frame) == scanned

    def test_enumeration_visits_at_most_13_vectors(self, monkeypatch):
        # F is integral and F = 0 (mod n0) on the whole lattice, so every
        # nonzero vector of the box Q <= T has F = n0 and is a shortest
        # vector.  A lattice in dimension 3 has at most 12 (the kissing
        # number), so the box holds at most 13 coefficient vectors.
        counts = []

        def counting(*args):
            found = list(fincke_pohst(*args))
            counts.append(found)
            return iter(found)

        fincke_pohst = lattice._fincke_pohst
        monkeypatch.setattr(lattice, "_fincke_pohst", counting)
        rng = random.Random(80)
        for bits in range(14, 81, 6):
            for frame in seeded_frames(rng, bits):
                assert lattice._reduced_point(*frame) is not None
        assert len(counts) == 12 * 11
        for found in counts:
            assert 3 <= len(found) <= 13
            assert [c for *c, excess in found if excess] == [[0, 0, 0]]

    def test_substituted_lattice_coordinate_is_even(self):
        for w in constructive_witnesses(TernaryForm.D122, 1, 300):
            _, profile, _ = construction_frame(w.form, w.core)
            con = w.construction
            if profile.x_substituted:
                assert con.point[0] % 2 == 0


class TestComposedValues:
    """lattice.composed_values, F on the completed square, against
    reference.composed_reference, F from the binary coefficients."""

    def test_agrees_with_the_reference(self):
        # the witness point and four seeded nonzero points of every
        # construction with m <= 2000, and of a 40-bit frame per profile;
        # each frame once more with b + 1, where v = (b^2 + gamma*n0) /
        # delta need not be integral, as in a witness that verify rejects
        rng = random.Random(26)
        frames = [((profile, core, con.q, con.t, con.b), con.point)
                  for profile, core, con in constructions_up_to(2000)]
        frames += [(frame, enumerate_point(*frame))
                   for frame in seeded_frames(random.Random(40), 40)]
        assert {frame[0].id for frame, _ in frames} == set(PROFILES)
        frames += [(frame[:4] + (frame[4] + 1,), point) for frame, point in frames]
        for frame, point in frames:
            step = 2 if frame[0].x_substituted else 1
            points = [point]
            while len(points) < 5:
                seeded = (step * rng.randint(-60, 60), rng.randint(-60, 60),
                          rng.randint(-60, 60))
                if seeded != (0, 0, 0):
                    points.append(seeded)
            for p in points:
                assert composed_values(*frame, p) == composed_reference(*frame, p)

    def test_odd_x_is_refused_in_the_substituted_profiles(self):
        seen = set()
        for profile, core, con in constructions_up_to(2000):
            if profile.x_substituted:
                seen.add(profile.id)
                x, y, z = con.point
                with pytest.raises(ValueError) as info:
                    composed_values(profile, core, con.q, con.t, con.b, (x + 1, y, z))
                assert str(info.value) == "lattice x must be even for profile %s" % profile.id
        assert seen == {"T1C", "T1D", "T1E"}


class TestLLL:
    """lattice._lll, Cohen's Algorithm 2.6.7 written out for n = 3, against
    Gram-Schmidt recomputed over Fraction (reference.gram_schmidt)."""

    @staticmethod
    def assert_reduced(gram, result):
        """The basis is unimodular, d and lams are the Gram-Schmidt data of
        basis*gram*basis^T, and the basis is size-reduced and meets Lovasz's
        condition with delta = 3/4."""
        basis, d, lams = result
        (a, b, c), (e, f, g), (h, i, j) = basis
        assert abs(a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)) == 1
        reduced = [[sum(u[r] * gram[r][s] * v[s] for r in range(3) for s in range(3))
                    for v in basis] for u in basis]
        assert gram_schmidt(reduced) == (list(d), list(lams))
        d0, d1, d2, d3 = (1, *d)
        l21, l31, l32 = lams
        assert 2 * abs(l21) <= d1 and 2 * abs(l31) <= d1 and 2 * abs(l32) <= d2
        assert 4 * d2 * d0 >= 3 * d1 * d1 - 4 * l21 * l21
        assert 4 * d3 * d1 >= 3 * d2 * d2 - 4 * l32 * l32

    def test_reduces_the_seeded_grams_of_every_profile(self, monkeypatch):
        calls = []

        def recording(gram):
            calls.append((gram, lll(gram)))
            return calls[-1][1]

        lll = lattice._lll
        monkeypatch.setattr(lattice, "_lll", recording)
        rng = random.Random(2515)
        profiles = set()
        for bits in range(14, 81, 6):
            for frame in seeded_frames(rng, bits):
                profiles.add(frame[0].id)
                assert lattice._reduced_point(*frame) is not None
        assert profiles == set(PROFILES) and len(calls) == 12 * 11
        for gram, result in calls:
            self.assert_reduced(gram, result)

    @pytest.mark.parametrize("rows", [
        ((10, 0, 0), (0, 10, 0), (0, 0, 1)),
        ((20, 1, 0), (3, 20, 0), (1, 1, 1)),
        ((7, 3, 0), (2, 8, 1), (1, -1, 1)),
    ])
    def test_short_last_row_ends_first(self, rows):
        # b3 reaches the front only by a swap at k = 3 and then a swap at
        # k = 2 with k_max = 3, which also moves l31 and l32
        gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
        result = lattice._lll(gram)
        self.assert_reduced(gram, result)
        assert result[0][0] in ((0, 0, 1), (0, 0, -1))


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
                    core = reduce_to_core(m)[2]
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

    def test_resource_cap_propagates(self, monkeypatch):
        monkeypatch.setattr(pipeline, "Q_CANDIDATE_BUDGET", 1)
        with pytest.raises(ResourceCapError):
            build_witness(TernaryForm.D122, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_witness(TernaryForm.D122, 0)

    def test_deterministic(self):
        for form in TernaryForm:
            for m in (97, 194, 388, 3880):
                assert build_witness(form, m) == build_witness(form, m)


WITNESS_FIELDS = list(Witness._fields)
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

# JSON values, huge integers below the 4300-digit conversion limit included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**64, 2**64) | st.floats()
    | st.text(max_size=3) | st.sampled_from([10**4000, -10**4000, 2**13000]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)
# The producer's claims, which verify does not read
CLAIMS = ("eligible", "verdict", "verified")


class TestSupportedRange:
    # Every eligible m below PRIMALITY_LIMIT gets a witness unless find_q
    # or Pollard rho hits its budget (exit 5).  At the largest eligible m
    # of each form, x2+y2+2z2 has a witness, and the other three forms run
    # out of auxiliary primes below the proven primality bound.
    @pytest.mark.parametrize("form, code", [(TernaryForm.D122, 5), (TernaryForm.D112, 0),
                                            (TernaryForm.D113, 5), (TernaryForm.D117, 5)])
    def test_largest_eligible_m(self, form, code):
        m = PRIMALITY_LIMIT - 1
        while not eligibility(form, m).eligible:
            m -= 1
        out, err = io.StringIO(), io.StringIO()
        argv = ["witness", "--form", form.cli_name, "--m", str(m), "--json"]
        assert dispatch(argv, out, err) == code
        if code == 0:
            assert run_verify(out.getvalue()) == (0, "", "")
        else:
            assert out.getvalue() == ""
            assert err.getvalue() == (
                "resource cap: no auxiliary prime for core %d below the proven"
                " primality bound\n" % reduce_to_core(m)[2])

    @pytest.mark.parametrize("form", [TernaryForm.D122, TernaryForm.D112])
    @pytest.mark.parametrize("k", [0, 3])
    def test_bound_is_on_the_odd_part(self, form, k):
        # m / 4^k = 2p^2 is at or above PRIMALITY_LIMIT but its odd part
        # p^2 is below it, so m reduces to core 2 and gets a witness
        p = math.isqrt(PRIMALITY_LIMIT - 1)
        while not is_prime(p):
            p -= 1
        assert 2 * p * p >= PRIMALITY_LIMIT
        m = 4**k * 2 * p * p
        assert reduce_to_core(m) == (k, p, 2)
        for command in ("witness", "represent"):
            out, err = io.StringIO(), io.StringIO()
            argv = [command, "--form", form.cli_name, "--m", str(m), "--json"]
            assert (dispatch(argv, out, err), err.getvalue()) == (0, "")
            assert run_verify(out.getvalue()) == (0, "", "")


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
        assert any("d*h" in p for p in rejected(w, h=w.construction.h + 1))

    @pytest.mark.parametrize("form, m", [
        (TernaryForm.D112, 13), (TernaryForm.D122, 3), (TernaryForm.D117, 13),
    ], ids=["d1", "d2", "d4"])
    def test_b_past_q(self, form, m):
        # b' = 2q - b keeps d*q | b'^2 + gamma*n0 with h' = h + 4(q - b)/d,
        # so only the canonical range 0 <= b < q rejects it
        w = build_witness(form, m)
        profile = construction_frame(w.form, w.core)[1]
        q, b, h = w.construction.q, w.construction.b, w.construction.h
        problems = rejected(w, b=2 * q - b, h=h + 4 * (q - b) // profile.d_factor)
        assert "b is not in canonical range" in problems
        assert "b^2 + gamma*n0 != d*h" not in problems

    def test_zero_point(self):
        w = build_witness(TernaryForm.D122, 3)
        assert any("zero" in p for p in rejected(w, point=(0, 0, 0)))

    def test_corrupted_q(self):
        w = build_witness(TernaryForm.D122, 3)
        rejected(w, q=w.construction.q + 8)  # 81 stays in the class

    def test_corrupted_t(self):
        w = build_witness(TernaryForm.D122, 11)
        rejected(w, t=w.construction.t + 1)

    def test_corrupted_b_parity(self):
        w = build_witness(TernaryForm.D122, 3)
        rejected(w, b=w.construction.b + 1)

    def test_b_off_its_congruence_reports_only_exact_lines(self):
        # delta_factor * q = 73 does not divide 18^2 + 3, so F and the
        # binary value would come from a rounded v and are not compared;
        # R is exact for every b
        w = build_witness(TernaryForm.D122, 3)
        assert w.construction.b == 17
        assert rejected(w, b=18) == ["b^2 + gamma*n0 != d*h", "R does not match the point"]

    def test_corrupted_representation(self):
        w = build_witness(TernaryForm.D122, 3)
        rejected(w, representation=(1, 1, 1))

    def test_corrupted_case_id(self):
        w = build_witness(TernaryForm.D122, 3)
        rejected(w, case_id="T1B")

    def test_corrupted_binary(self):
        # the value lines name the JSON keys binary_rep and binary_value
        w = build_witness(TernaryForm.D122, 11)
        a, beta = w.construction.binary
        assert a > 0
        assert "binary_rep does not evaluate to n" in rejected(w, binary=(a + 1, beta))
        assert "binary_rep not normalized" in rejected(w, binary=(-a, beta))
        assert "binary_value does not match the point" in rejected(w, n=w.construction.n + 1)

    def test_corrupted_scale(self):
        w = build_witness(TernaryForm.D122, 12)
        rejected(w, s=3)

    def test_unknown_case(self):
        w = build_witness(TernaryForm.D122, 3)
        assert any("unknown case" in p for p in rejected(w, case_id="T9Z"))

    @pytest.mark.parametrize("form, m, core", [
        (TernaryForm.D122, 3, 7),
        (TernaryForm.D122, 3, 15),
        (TernaryForm.D112, 6, 14),
    ])
    def test_uncovered_core(self, form, m, core):
        w = build_witness(form, m)
        assert "no case covers core %d" % core in rejected(w, core=core)

    @pytest.mark.parametrize("form, m, core", [
        (TernaryForm.D112, 6, 4),
        (TernaryForm.D112, 6, 12),
        (TernaryForm.D112, 6, 20),
    ])
    def test_misshapen_core(self, form, m, core):
        w = build_witness(form, m)
        assert ("core is not squarefree of the expected shape"
                in rejected(w, core=core))

    @pytest.mark.parametrize("field, value, problem", [
        ("k", -1, "k < 0"),
        ("q", 0, "q is not prime"),
        ("q", 1, "q is not prime"),
        ("q", 2**89 - 1, "q is beyond the proven primality range"),
    ])
    def test_out_of_range_field(self, field, value, problem):
        w = build_witness(TernaryForm.D112, 6)
        assert problem in rejected(w, **{field: value})

    @pytest.mark.parametrize("core", [2**89 - 1, 2 * (2**89 - 1)])
    def test_core_beyond_primality_range(self, core):
        w = build_witness(TernaryForm.D122, 3)
        assert ("core is beyond the proven primality range"
                in rejected(w, core=core))

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
        (TernaryForm.D122, 3, dict(binary=(1,)), "binary_rep is not a pair"),
        (TernaryForm.D122, 3, dict(binary=(1, 0, 0)), "binary_rep is not a pair"),
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
        problems = rejected(build_witness(form, m), **changes)
        if problem is not None:
            assert problem in problems

    @pytest.mark.parametrize("changes, problem", [
        (dict(representation=None), "representation is not a triple"),
        (dict(point=5), "point is not a triple"),
        (dict(q="x"), "q is not an integer"),
        (dict(point=(1.5, 2, 3)), "point has a non-integer entry"),
        (dict(point=[1, -4, -2]), "point is not a triple"),
        (dict(representation=(True, 0, 1)), "representation has a non-integer entry"),
        (dict(k=False), "k is not an integer"),
        (dict(m=3.0), "m is not an integer"),
        (dict(binary=(1.0, 0)), "binary_rep has a non-integer entry"),
        (dict(form="x2+2y2+2z2"), "form is not one of the four forms"),
        (dict(case_id=None), "case is not a string"),
        (dict(k=2**80), "4^k * s^2 * core != m"),
    ], ids=["representation-none", "point-int", "q-str", "point-floats",
            "point-list", "representation-bool", "k-bool", "m-float",
            "binary-float", "form-str", "case-id-none", "k-huge"])
    def test_wrongly_typed_field(self, changes, problem):
        assert rejected(build_witness(TernaryForm.D122, 3), **changes) == [problem]

    # The JSON forms of the edits that json_edit cannot write: a name that
    # names no form, a point that is a JSON object, and a construction of
    # two keys
    @pytest.mark.parametrize("changes, problems", [
        (dict(form="x2+y2+5z2"), ["form is not one of the four forms"]),
        (dict(form=3), ["form is not one of the four forms"]),
        (dict(point={"x": 1}), ["point is not a triple"]),
        (dict(q=73, t=1, **dict.fromkeys(WITNESS_KEYS[10:16])),
         ["b is not an integer", "h is not an integer", "R is not an integer",
          "binary_value is not an integer", "point is not a triple", "binary_rep is not a pair"]),
    ], ids=["form-unknown-name", "form-int", "point-object", "construction-pair"])
    def test_json_only_edit(self, changes, problems):
        doc = witness_fields(build_witness(TernaryForm.D122, 3)) | changes
        assert run_verify(json.dumps(doc)) == (
            1, "".join(p + "\n" for p in problems), "")

    @given(st.sampled_from(FUZZ_WITNESSES),
           st.dictionaries(st.sampled_from(WITNESS_FIELDS), FUZZ_VALUES,
                           max_size=3),
           st.dictionaries(st.sampled_from(CONSTRUCTION_FIELDS), FUZZ_VALUES,
                           max_size=3))
    def test_field_type_fuzz_raises_nothing(self, w, changes, inner):
        # inner edits the Construction of a constructed witness
        edits = [(getattr(w, k), v) for k, v in changes.items()]
        bad = w._replace(**changes)
        if w.construction is not None and inner and "construction" not in changes:
            edits += [(getattr(w.construction, k), v) for k, v in inner.items()]
            bad = edit(bad, **inner)
        assume(edits)
        problems = witness_problems(bad)
        assert isinstance(problems, list)
        assert all(isinstance(p, str) for p in problems)
        if any(type(new) is not type(old) for old, new in edits):
            assert problems

    # Every change of a value's JSON type outside the producer's claims is
    # rejected; nothing raises, so verify exits 0 or 1 and writes no stderr
    @given(st.sampled_from(FUZZ_WITNESSES),
           st.dictionaries(st.sampled_from(WITNESS_KEYS), JSON_VALUES, max_size=3))
    def test_json_field_type_fuzz_exits_0_or_1(self, w, changes):
        doc = witness_fields(w)
        edits = [(doc[k], v) for k, v in changes.items() if k not in CLAIMS]
        code, out, err = run_verify(json.dumps(doc | changes))
        assert code in (0, 1) and err == ""
        assert (code == 1) == bool(out)
        if any(type(new) is not type(old) for old, new in edits):
            assert code == 1

    def test_every_substituted_core_is_judged(self):
        by_case = {}
        for form in TernaryForm:
            for w in constructive_witnesses(form, 1, 200):
                by_case.setdefault(w.case_id, w)
        for w in by_case.values():
            for core in range(-2, 80):
                bad = w._replace(core=core)
                assert verify_witness(bad) == (core == w.core)
                assert run_verify(json_edit(w, core=core))[0] == (0 if core == w.core else 1)


# One witness per case id: the m of the installed-package check in CI
CASE_WITNESSES = {case_id: build_witness(form, m) for case_id, form, m in (
    ("T1A", TernaryForm.D122, 3), ("T1B", TernaryForm.D122, 5),
    ("T1C", TernaryForm.D122, 6), ("T1D", TernaryForm.D122, 10),
    ("T1E", TernaryForm.D122, 14), ("T2A", TernaryForm.D112, 3),
    ("T2B", TernaryForm.D112, 7), ("T2C", TernaryForm.D112, 5),
    ("T2D", TernaryForm.D112, 1000006), ("T3A", TernaryForm.D117, 53),
    ("T3B", TernaryForm.D113, 433), (SMALL_CORE, TernaryForm.D122, 1))}


class TestRecords:
    """The six record types are named tuples with __slots__ = ()."""

    def test_no_instance_dict(self):
        w = CASE_WITNESSES["T1A"]
        report = scan_compare(TernaryForm.D112, 1, 20)
        records = [eligibility(TernaryForm.D122, 7), PROFILES["T1A"], w.construction, w,
                   report.rows[0], report]
        assert [type(r).__name__ for r in records] == [
            "EligibilityVerdict", "CaseProfile", "Construction", "Witness",
            "ScanRow", "ScanReport"]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_scan_records_survive_pickle(self):
        # the process pool of scan_compare returns its rows pickled
        report = scan_compare(TernaryForm.D112, 1, 20)
        assert {row.verdict for row in report.rows} == {"eligible", "obstructed"}
        assert any(row.q is None and row.representation for row in report.rows)
        back = pickle.loads(pickle.dumps(report))
        assert back == report and type(back) is ScanReport
        assert all(type(row) is ScanRow for row in back.rows)
        assert back.to_csv() == report.to_csv()

    def test_defaults(self):
        assert ScanRow(14, "obstructed", False, False, True, None, None).elapsed_micros == 0
        assert ScanReport(TernaryForm.D112, 1, 0).rows == ()

    def test_json_round_trip_per_case(self):
        assert set(CASE_WITNESSES) == set(PROFILES) | {"T2D", SMALL_CORE}
        for case_id, w in CASE_WITNESSES.items():
            assert w.case_id == case_id
            assert witness_from_fields(witness_fields(w)) == w


class TestWitnessIdentities:
    def test_binary_part_positive_definite(self):
        for form in TernaryForm:
            for w in constructive_witnesses(form, 1, 300):
                _, profile, core = construction_frame(w.form, w.core)
                con = w.construction
                u, wc, v = binary_coefficients(profile, core, con.q, con.b)
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
    core = reduce_to_core(m)[2]
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


def large_pinned_inputs():
    """Two seeded m of 44 to 80 bits per constructive case id: past the
    old lattice scan's reach, so the reduction finds every point."""
    return seeded_case_inputs(random.Random(20261020), per_case=2, min_bits=44,
                              max_bits=80)


# sha256 of the concatenated `witness --form F --m M --json` stdout over
# large_pinned_inputs().
PINNED_LARGE_WITNESS_SHA256 = "497e514d24a8d485c93292dbdbf51be7dc01236e4f3afc029309c0f5bfde62c4"


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

    def test_large_witness_json_bytes(self):
        digest = hashlib.sha256()
        for form, m in large_pinned_inputs():
            out = io.StringIO()
            code = dispatch(["witness", "--form", form.cli_name, "--m", str(m), "--json"],
                            out, io.StringIO())
            assert code == 0 and run_verify(out.getvalue()) == (0, "", ""), (form, m)
            digest.update(out.getvalue().encode())
        assert digest.hexdigest() == PINNED_LARGE_WITNESS_SHA256

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
                u, wc, v = binary_coefficients(profile, core, con.q, con.b)
                delta = profile.delta_factor * con.q
                lam = profile.alpha * con.q
                gn = profile.gamma * profile.n0(core)
                for _ in range(50):
                    x, y = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
                    assert (delta * (u * x * x + wc * x * y + v * y * y)
                            == (lam * x + con.b * y) ** 2 + gn * y * y)
