import hashlib
import io
import math
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from ternrep import (
    ORACLE_STEP_BUDGET,
    SCAN_HI_LIMIT,
    InternalError,
    ResourceCapError,
    TernaryForm,
    brute_force_ternary,
    evaluate,
    first_triples,
    oracle_triple,
    represented_bits,
    scan_compare,
)
from ternrep import oracle, pipeline
from ternrep.cli import dispatch
from ternrep.oracle import CSV_HEADER, dickson_excluded

from reference import brute_force_binary

# sha256 of scan_compare(form, 1, 3000).to_csv() as written when every row
# still ran brute_force_ternary; the bitset scan must print the same bytes.
SCAN_CSV_SHA256 = {
    TernaryForm.D122: "e4da8bab1f1b6ec4195d4600f4fbae4b2f4bb09edcce31be9af0825793ad041f",
    TernaryForm.D112: "26dbc59cc1e7eee24808959d4b20120c16e1fd1b74a30ff8abb11ed08a84140b",
    TernaryForm.D113: "0700e6f33bff67452442cccef28fef9834ef4a24ab265ecfa4585063c228267d",
    TernaryForm.D117: "e2ccdac848c5285ff891752c534668e24b9f4b848b1b349588b6f49e405d5350",
}
# sha256 of `scan --form F --lo 1 --hi 3000 --json` stdout, taken while cli
# rendered the JSON rows itself.
SCAN_JSON_SHA256 = {
    TernaryForm.D122: "d2c37bfdd639d27fb54561b3a58b7bb88e9c6eb81f2fa1dc49ccf4743ee5f847",
    TernaryForm.D112: "90e36e357ebc81a8918f53f4ac715c0925a9dd5a0726b73f797a772b51b94c3d",
    TernaryForm.D113: "ecf1aba313a5242f699b3cfd78c3fe4b61d5bff460503d3dfc57a58a914e723a",
    TernaryForm.D117: "4ed00f56e7df5d700c25afac8d71f0d739c97397d5928c2f4f3cbf691dd4de7e",
}
# sha256 of scan_compare(form, 65000, 66100).to_csv(), taken while is_prime
# read a prime bitset below 2**16 and factorize walked a gcd against the
# trial primes.  The window crosses 2**16, where both kernels hand over from
# their table to Miller-Rabin and to gcd/rho.
SCAN_EDGE_CSV_SHA256 = {
    TernaryForm.D122: "672ad4759091eaf04ea8dc384f184fbe26c79fbefee6a429c5c65dcf5cffc46b",
    TernaryForm.D112: "430ea22334dd8b5b02a05f0b67ef5abac68409e8b81757eb6738e8d976dae89d",
    TernaryForm.D113: "ade94fdf2d1c0a2265dd04985d8df5db7206d417bffdc7dda996c01f888d369f",
    TernaryForm.D117: "314a01ad7397f9771ab640708554ce5981dbcc423a924ab5cb9805f50ef3f1ed",
}


def all_representations(form, m):
    c1, c2, c3 = form.coefficients
    out = []
    for x in range(math.isqrt(m) + 1):
        for y in range(math.isqrt(m // c2) + 1):
            for z in range(math.isqrt(m // c3) + 1):
                if evaluate(form, (x, y, z)) == m:
                    out.append((x, y, z))
    return out


class TestBruteForceTernary:
    def test_pinned_values(self):
        assert brute_force_ternary(TernaryForm.D122, 7) is None
        assert brute_force_ternary(TernaryForm.D112, 1) == (0, 1, 0)

    def test_lexicographically_first(self):
        # the full cube scan must agree with the oracle on which solution
        # comes first; the D117 value for 11 pins the order
        assert brute_force_ternary(TernaryForm.D117, 11) == (0, 2, 1)
        for form in TernaryForm:
            for m in range(0, 260):
                reps = all_representations(form, m)
                expected = min(reps) if reps else None
                assert brute_force_ternary(form, m) == expected

    def test_zero(self):
        for form in TernaryForm:
            assert brute_force_ternary(form, 0) == (0, 0, 0)


def search_steps(form, m):
    """(x, y) steps of the whole unbudgeted search for m."""
    c1, c2, _ = form.coefficients
    return sum(math.isqrt((m - c1 * x * x) // c2) + 1
               for x in range(math.isqrt(m // c1) + 1))


class TestSearchBudget:
    # 7*u with u = 3 (mod 7) is not a value of x^2+y^2+7z^2: 7 | x^2+y^2
    # forces 7 | x, y, and then u = z^2 (mod 7).
    M_UNREPRESENTED = 7 * (7 * 1000 + 3)

    def test_budget_is_stated_once(self):
        assert ORACLE_STEP_BUDGET == oracle.ORACLE_STEP_BUDGET == 2**24

    def test_unrepresented_at_and_past_the_budget(self, monkeypatch):
        form, m = TernaryForm.D117, self.M_UNREPRESENTED
        steps = search_steps(form, m)
        monkeypatch.setattr(oracle, "ORACLE_STEP_BUDGET", steps)
        assert brute_force_ternary(form, m) is None
        monkeypatch.setattr(oracle, "ORACLE_STEP_BUDGET", steps - 1)
        with pytest.raises(ResourceCapError, match="budget of %d" % (steps - 1)):
            brute_force_ternary(form, m)

    def test_found_at_and_past_the_budget(self, monkeypatch):
        form, m = TernaryForm.D117, 11
        assert brute_force_ternary(form, m) == (0, 2, 1)
        # x = 0 reaches y = 2 on its third step
        monkeypatch.setattr(oracle, "ORACLE_STEP_BUDGET", 3)
        assert brute_force_ternary(form, m) == (0, 2, 1)
        monkeypatch.setattr(oracle, "ORACLE_STEP_BUDGET", 2)
        with pytest.raises(ResourceCapError):
            brute_force_ternary(form, m)


class TestOracleTriple:
    def test_agrees_with_the_search(self):
        for form in TernaryForm:
            for m in range(0, 600):
                assert oracle_triple(form, m) == brute_force_ternary(form, m)

    def test_dickson_excluded(self):
        assert dickson_excluded(6) and dickson_excluded(54) and not dickson_excluded(9)
        with pytest.raises(ValueError):
            dickson_excluded(0)


def represented_in(form, lo, hi):
    bits = represented_bits(form.coefficients, hi)
    return [m for m in range(lo, hi + 1) if bits >> m & 1]


class TestFirstTriples:
    @pytest.mark.parametrize("form", list(TernaryForm), ids=lambda f: f.name)
    def test_matches_brute_force_to_20000(self, form):
        represented = represented_in(form, 1, 20000)
        # unrepresented m are asked for too, and left out of the answer
        triples = first_triples(form, range(1, 20001))
        assert sorted(triples) == represented
        for m in represented:
            assert triples[m] == brute_force_ternary(form, m), m

    @settings(max_examples=30)
    @given(st.sampled_from(list(TernaryForm)), st.integers(1, 2 * 10**5),
           st.integers(1, 600))
    def test_matches_brute_force_on_windows(self, form, lo, width):
        ms = represented_in(form, lo, lo + width - 1)
        assert first_triples(form, ms) == {m: brute_force_ternary(form, m) for m in ms}

    def test_small_cases(self):
        for form in TernaryForm:
            assert first_triples(form, []) == {}
            assert first_triples(form, [0, 0]) == {0: (0, 0, 0)}
        assert first_triples(TernaryForm.D117, [3, 11, 3]) == {11: (0, 2, 1)}
        assert first_triples(TernaryForm.D122, iter([7, 15, 23])) == {}
        with pytest.raises(ValueError):
            first_triples(TernaryForm.D122, [5, -1])


class TestBruteForceBinary:
    def test_pinned_values(self):
        assert brute_force_binary(2, 3) == (1, 1)
        assert brute_force_binary(7, 2) is None
        assert brute_force_binary(3, 4) == (1, 1)

    def test_a_outer_first(self):
        for c in (2, 3, 7):
            for n in range(0, 400):
                hits = [
                    (a, b)
                    for a in range(math.isqrt(n) + 1)
                    for b in range(math.isqrt(n // c) + 1)
                    if a * a + c * b * b == n
                ]
                assert brute_force_binary(c, n) == (hits[0] if hits else None)

    @given(st.sampled_from((2, 3, 7)), st.integers(0, 5000))
    def test_soundness(self, c, n):
        rep = brute_force_binary(c, n)
        if rep is not None:
            a, b = rep
            assert a >= 0 and b >= 0
            assert a * a + c * b * b == n


class TestRepresentedBits:
    def test_agrees_with_ternary_search(self):
        for form in TernaryForm:
            bits = represented_bits(form.coefficients, 3000)
            assert bits.bit_length() <= 3001
            for m in range(3001):
                found = brute_force_ternary(form, m) is not None
                assert (bits >> m & 1 == 1) == found, (form, m)

    def test_agrees_with_binary_search(self):
        for c in (2, 3, 7):
            bits = represented_bits((1, c), 5000)
            assert bits.bit_length() <= 5001
            for n in range(5001):
                found = brute_force_binary(c, n) is not None
                assert (bits >> n & 1 == 1) == found, (c, n)

    def test_small_ranges(self):
        assert represented_bits((1, 2, 2), 0) == 1
        assert represented_bits((1, 1, 7), 3) == 0b0111
        assert represented_bits((5,), 20) == (1 << 0) | (1 << 5) | (1 << 20)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            represented_bits((1, 2, 2), -1)
        with pytest.raises(ValueError):
            represented_bits((1, 0, 2), 10)


class TestScanCompare:
    def test_all_agree_at_desk_scale(self):
        report = scan_compare(TernaryForm.D122, 1, 100)
        assert len(report.rows) == 100
        assert report.all_agree
        assert [row.m for row in report.rows] == list(range(1, 101))

    def test_sufficiency_only_forms(self):
        report = scan_compare(TernaryForm.D117, 1, 100)
        assert all(
            row.oracle_found or not row.pipeline_found for row in report.rows
        )
        by_m = {row.m: row for row in report.rows}
        assert by_m[3].verdict == "outside-covered-cases"
        assert not by_m[3].pipeline_found and not by_m[3].oracle_found
        assert by_m[11].verdict == "outside-covered-cases"
        assert not by_m[11].pipeline_found and by_m[11].oracle_found
        assert by_m[3].agree and by_m[11].agree

    def test_single_obstructed_row(self):
        report = scan_compare(TernaryForm.D112, 14, 14)
        (row,) = report.rows
        assert row.verdict == "obstructed"
        assert not row.pipeline_found and not row.oracle_found
        assert row.agree
        assert row.representation is None and row.q is None

    def test_pipeline_representation_wins(self):
        report = scan_compare(TernaryForm.D122, 3, 3)
        (row,) = report.rows
        assert row.representation == (1, 0, 1)
        assert row.q == 73

    def test_jobs_do_not_change_output(self, monkeypatch, pool_sizes):
        # 60 rows per worker earn a pool of 4 here, so the pool path runs
        monkeypatch.setattr(oracle, "POOL_MIN_ROWS", 60)
        serial = scan_compare(TernaryForm.D112, 1, 240)
        parallel = scan_compare(TernaryForm.D112, 1, 240, jobs=4)
        assert pool_sizes == [4]
        assert serial == parallel
        assert serial.to_csv() == parallel.to_csv()

    def test_large_jobs_clamp_the_pool(self, monkeypatch):
        # A stand-in pool records its size and maps inline: no process starts.
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # the rule is relative to POOL_MIN_ROWS; a small value keeps it quick
        rows = 40
        monkeypatch.setattr(oracle, "POOL_MIN_ROWS", rows)
        serial = scan_compare(TernaryForm.D112, 1, 3 * rows)
        assert sizes == []
        # below 2 * POOL_MIN_ROWS rows no pool starts, whatever the job count
        for jobs in (2, 3, 10000):
            below = scan_compare(TernaryForm.D112, 1, 2 * rows - 1, jobs=jobs)
            assert below.rows == serial.rows[:2 * rows - 1]
        assert sizes == []
        assert scan_compare(TernaryForm.D112, 1, 2 * rows, jobs=10000).rows \
            == serial.rows[:2 * rows]
        assert sizes == [2]
        assert scan_compare(TernaryForm.D112, 1, 3 * rows, jobs=10000) == serial
        assert sizes == [2, 3]
        # an unknown CPU count is one CPU: the scan runs in this process
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert scan_compare(TernaryForm.D112, 1, 3 * rows, jobs=10000) == serial
        assert sizes == [2, 3]

    def test_resource_cap_ends_the_scan(self, monkeypatch):
        monkeypatch.setattr(pipeline, "Q_CANDIDATE_BUDGET", 1)
        with pytest.raises(ResourceCapError, match="within 1 candidates"):
            scan_compare(TernaryForm.D122, 1, 3)

    def test_csv_shape(self):
        report = scan_compare(TernaryForm.D122, 6, 8)
        text = report.to_csv()
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == "m,verdict,pipeline_found,oracle_found,agree,x,y,z,q,elapsed_micros"
        assert lines[1] == "6,eligible,true,true,true,2,0,1,73,0"
        assert lines[2] == "7,obstructed,false,false,true,,,,,0"
        assert lines[3] == "8,eligible,true,true,true,0,0,2,,0"
        assert lines[4] == ""
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_elapsed_micros_column_is_stable(self):
        report = scan_compare(TernaryForm.D113, 1, 40)
        assert all(row.elapsed_micros == 0 for row in report.rows)

    @pytest.mark.parametrize("form", list(TernaryForm), ids=lambda f: f.name)
    def test_csv_pinned(self, form):
        text = scan_compare(form, 1, 3000).to_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == SCAN_CSV_SHA256[form]

    @pytest.mark.parametrize("form", list(TernaryForm), ids=lambda f: f.name)
    def test_csv_pinned_across_the_table_edge(self, form):
        text = scan_compare(form, 65000, 66100).to_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == SCAN_EDGE_CSV_SHA256[form]

    @pytest.mark.parametrize("form", list(TernaryForm), ids=lambda f: f.name)
    def test_json_pinned(self, form):
        out = io.StringIO()
        code = dispatch(["scan", "--form", form.cli_name, "--lo", "1", "--hi", "3000",
                         "--json"], out, io.StringIO())
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SCAN_JSON_SHA256[form]

    def test_printed_oracle_triples_are_first_hits(self):
        reports = [scan_compare(form, 1, 1500) for form in (TernaryForm.D113, TernaryForm.D117)]
        printed = 0
        for report in reports:
            for row in report.rows:
                if row.pipeline_found:
                    continue
                expected = brute_force_ternary(report.form, row.m)
                assert row.representation == expected
                assert row.oracle_found == (expected is not None)
                printed += expected is not None
        assert printed > 1000

    def test_search_that_misses_a_marked_row_is_internal_error(self, monkeypatch):
        real = oracle.first_triples

        def drop_one(form, ms):
            triples = real(form, ms)
            if triples:
                del triples[min(triples)]
            return triples

        monkeypatch.setattr(oracle, "first_triples", drop_one)
        with pytest.raises(InternalError):
            scan_compare(TernaryForm.D117, 11, 11)
        # rows the pipeline represents never reach the search
        assert scan_compare(TernaryForm.D122, 3, 3).rows[0].representation == (1, 0, 1)

    @pytest.mark.parametrize("lo, hi", [(1, SCAN_HI_LIMIT + 1),
                                        (SCAN_HI_LIMIT + 1, SCAN_HI_LIMIT + 1)])
    def test_hi_above_limit_raises_before_work(self, lo, hi):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            scan_compare(TernaryForm.D112, lo, hi, jobs=2)
        assert time.perf_counter() - start < 1.0

    def test_hi_at_limit_is_accepted(self, monkeypatch):
        # A stand-in bitset keeps the run small; only the bound is under test.
        monkeypatch.setattr(oracle, "represented_bits", lambda coefficients, hi: 0)
        (row,) = scan_compare(TernaryForm.D112, SCAN_HI_LIMIT, SCAN_HI_LIMIT).rows
        assert row.m == SCAN_HI_LIMIT and not row.oracle_found
