import math
import os

from hypothesis import given, strategies as st

from ternrep import (
    TernaryForm,
    brute_force_binary,
    brute_force_ternary,
    evaluate,
    scan_compare,
)
from ternrep.oracle import CSV_HEADER


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

    def test_jobs_do_not_change_output(self):
        serial = scan_compare(TernaryForm.D112, 1, 240)
        parallel = scan_compare(TernaryForm.D112, 1, 240, jobs=4)
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

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        serial = scan_compare(TernaryForm.D112, 1, 240)
        assert scan_compare(TernaryForm.D112, 1, 240, jobs=10000) == serial
        assert scan_compare(TernaryForm.D112, 5, 5, jobs=10000).rows == serial.rows[4:5]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert scan_compare(TernaryForm.D112, 1, 240, jobs=10000) == serial
        assert sizes == [3, 1, 1]

    def test_resource_cap_flagged_not_fatal(self):
        report = scan_compare(TernaryForm.D122, 3, 3, max_candidates=1)
        (row,) = report.rows
        assert row.verdict == "resource-cap"
        assert row.agree
        assert report.any_capped
        assert report.all_agree

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
