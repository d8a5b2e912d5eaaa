"""Acceptance gate.

One test per top-level criterion.  Each prints a single
"ACCEPTANCE <criterion>: PASS|FAIL" line before asserting, so the whole
gate can be read off the captured output at a glance.

The four 50000-point sweeps are shared through a module fixture: every
witness is built once and audited inline (full re-verification plus the
exact six-point congruence check) while the sweep streams.  The
independent cross-checks to BITSET_LIMIT read represented_bits, which marks
every value a form takes up to the limit without any per-m search.
"""

import dataclasses
import hashlib
import io
import json

import pytest

from ternrep import (
    TernaryForm,
    Witness,
    build_witness,
    eligibility,
    represented_bits,
    scan_compare,
    verify_witness,
)
from ternrep import oracle
from ternrep.cli import dispatch
from ternrep.oracle import dickson_excluded
from ternrep.pipeline import (SMALL_CORE, construction_frame, witness_fields,
                              witness_from_fields)

from reference import binary_coefficients, descent_mismatches

SWEEP_LIMIT = 50000
ORACLE_LIMIT = 5000
DESCENT_LIMIT = 100000
ROUND_TRIP_LIMIT = 20000
BITSET_LIMIT = 10**6

# sha256 of repr(w), in order of m, over every witness each sweep builds:
# any change to a witness of m <= SWEEP_LIMIT shows here.
SWEEP_WITNESS_SHA256 = {
    "x2+2y2+2z2": "a39a4995be1239dc7e10a2d277265597b35d9526b49f12344628cf2377176c2d",
    "x2+y2+2z2": "26814e37e7796c2ab8cb71dafe9f1b9ee5ba7625765af96487f4613c86b1e506",
    "x2+y2+3z2": "a735203dbcbf8f1c49ff24ac63e39fbffa453662c3d29825d8306d650ac20481",
    "x2+y2+7z2": "2374030e89f7dd96746a9880a5642d146ae0ce4ddbd348b34ca6360d11da92d7",
}

# F mod n0 is a ternary quadratic form.  Its values at e1, e2, e3 are its
# diagonal coefficients, and its value at e_i + e_j adds the coefficient of
# x_i x_j to two of them, so F vanishes mod n0 at these six points exactly
# when every coefficient does, that is, at every integer point.
SIX_POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))


@pytest.fixture
def report(capsys):
    def announce(name, ok, detail=""):
        suffix = "" if ok or not detail else " (%s)" % detail
        line = "ACCEPTANCE %s: %s%s" % (name, "PASS" if ok else "FAIL", suffix)
        with capsys.disabled():
            print("\n" + line, flush=True)
    return announce


def arithmetic_obstructed(form, m):
    while m % 4 == 0:
        m //= 4
    if form is TernaryForm.D122:
        return m % 8 == 7
    if form is TernaryForm.D112:
        return m % 16 == 14
    raise AssertionError("no exact criterion for %s" % form)


def unrepresented(form):
    """The m in 1..BITSET_LIMIT that the form does not represent."""
    bits = represented_bits(form.coefficients, BITSET_LIMIT)
    flags = format(bits, "0%db" % (BITSET_LIMIT + 1))[::-1]
    return [m for m in range(1, BITSET_LIMIT + 1) if flags[m] == "0"]


def criterion_misses(form, excluded):
    """First m <= BITSET_LIMIT where representation by the form and the
    criterion "m is represented iff not excluded(m)" disagree."""
    expected = [m for m in range(1, BITSET_LIMIT + 1) if excluded(m)]
    return sorted(set(unrepresented(form)).symmetric_difference(expected))[:5]


def audit_witness(w):
    """None when the witness passes re-verification and F = 0 (mod n0)
    holds identically; otherwise a short reason.  For m <= ROUND_TRIP_LIMIT
    the witness is first read back from its JSON object, as `verify` reads
    the output of `witness --json`, and must come back equal."""
    if w.m <= ROUND_TRIP_LIMIT:
        rebuilt = witness_from_fields(json.loads(json.dumps(witness_fields(w))))
        if rebuilt != w:
            return "JSON round trip changed the witness"
        w = rebuilt
    if not verify_witness(w):
        return "re-verification failed"
    if w.case_id == SMALL_CORE:
        return None
    _, profile, core = construction_frame(w.form, w.core)
    target = profile.n0(core)
    con = w.construction
    u, wc, v = binary_coefficients(profile, core, con.q, con.b)
    c1 = profile.alpha * con.t * con.q
    c2 = con.b * con.t
    rho = profile.rho
    for x, y, z in SIX_POINTS:
        r = c1 * x + c2 * y + target * z
        if (rho * r * r + u * x * x + wc * x * y + v * y * y) % target:
            return "congruence miss at %r" % ((x, y, z),)
    return None


@dataclasses.dataclass
class SweepResult:
    equivalence_failures: list
    audit_failures: list
    witnesses: int
    digest: str


@pytest.fixture(scope="module")
def sweeps():
    results = {}
    for form in TernaryForm:
        eq_failures, audit_failures, built = [], [], 0
        digest = hashlib.sha256()
        for m in range(1, SWEEP_LIMIT + 1):
            w = build_witness(form, m)
            got = isinstance(w, Witness)
            if form in (TernaryForm.D122, TernaryForm.D112):
                if got == arithmetic_obstructed(form, m):
                    eq_failures.append(m)
            elif eligibility(form, m).eligible and not got:
                eq_failures.append(m)
            if got:
                built += 1
                digest.update(repr(w).encode())
                reason = audit_witness(w)
                if reason is not None:
                    audit_failures.append((m, reason))
        results[form] = SweepResult(
            eq_failures, audit_failures, built, digest.hexdigest())
    return results


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_equivalence_x2_2y2_2z2(sweeps, report):
    res = sweeps[TernaryForm.D122]
    cross = scan_compare(TernaryForm.D122, 1, ORACLE_LIMIT)
    misses = criterion_misses(
        TernaryForm.D122, lambda m: arithmetic_obstructed(TernaryForm.D122, m))
    ok = not res.equivalence_failures and cross.all_agree and not misses
    report("equivalence-x2+2y2+2z2", ok,
           "failures %r, criterion misses %r"
           % (res.equivalence_failures[:5], misses))
    assert res.equivalence_failures == []
    assert cross.all_agree
    assert len(cross.rows) == ORACLE_LIMIT
    assert misses == []


def test_equivalence_x2_y2_2z2(sweeps, report):
    res = sweeps[TernaryForm.D112]
    cross = scan_compare(TernaryForm.D112, 1, ORACLE_LIMIT)
    misses = criterion_misses(
        TernaryForm.D112, lambda m: arithmetic_obstructed(TernaryForm.D112, m))
    ok = not res.equivalence_failures and cross.all_agree and not misses
    report("equivalence-x2+y2+2z2", ok,
           "failures %r, criterion misses %r"
           % (res.equivalence_failures[:5], misses))
    assert res.equivalence_failures == []
    assert cross.all_agree
    assert misses == []


def test_dickson_x2_y2_3z2(report):
    misses = criterion_misses(TernaryForm.D113, dickson_excluded)
    report("dickson-x2+y2+3z2", not misses, "misses %r" % misses)
    assert misses == []


def test_sufficiency_covered_cases(sweeps, report):
    failures = {
        form: sweeps[form].equivalence_failures
        for form in (TernaryForm.D117, TernaryForm.D113)
    }
    missed = {
        form: [m for m in unrepresented(form) if eligibility(form, m).eligible][:5]
        for form in (TernaryForm.D117, TernaryForm.D113)
    }
    ok = not any(failures.values()) and not any(missed.values())
    report("sufficiency-covered-cases", ok,
           "failures %r, eligible but unrepresented %r" % (failures, missed))
    assert failures[TernaryForm.D117] == []
    assert failures[TernaryForm.D113] == []
    assert missed == {TernaryForm.D117: [], TernaryForm.D113: []}
    assert sweeps[TernaryForm.D117].witnesses > 0
    assert sweeps[TernaryForm.D113].witnesses > 0


def test_witness_audit(sweeps, report):
    bad = {form: res.audit_failures for form, res in sweeps.items()
           if res.audit_failures}
    total = sum(res.witnesses for res in sweeps.values())
    ok = not bad and total > 0
    report("witness-audit", ok, "failures %r" % bad)
    assert bad == {}
    assert total > 100000


def test_sweep_witness_bytes(sweeps, report):
    digests = {form.cli_name: res.digest for form, res in sweeps.items()}
    ok = digests == SWEEP_WITNESS_SHA256
    report("sweep-witness-bytes", ok, "got %r" % digests)
    assert digests == SWEEP_WITNESS_SHA256


def test_descent_oracle_equivalence(report):
    failures = descent_mismatches(DESCENT_LIMIT)
    ok = not failures
    report("descent-oracle-equivalence", ok, "failures %r" % failures[:5])
    assert failures == []


def test_determinism(tmp_path, report, monkeypatch, pool_sizes):
    # 250 rows per worker earn --jobs 4 a pool of 4 on 2000 rows and of 2
    # on 500, so both halves run the pool path
    monkeypatch.setattr(oracle, "POOL_MIN_ROWS", 250)
    argv = ["scan", "--form", "x2+2y2+2z2", "--lo", "1", "--hi", "2000"]
    paths = [str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv")]
    assert run_cli(argv + ["--out", paths[0]])[0] == 0
    assert run_cli(argv + ["--out", paths[1]])[0] == 0
    assert run_cli(argv + ["--out", paths[2], "--jobs", "4"])[0] == 0
    blobs = [open(p, "rb").read() for p in paths]
    csv_ok = blobs[0] == blobs[1] == blobs[2] and blobs[0]

    json_argv = ["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "500",
                 "--json"]
    json_ok = (run_cli(json_argv) == run_cli(json_argv)
               == run_cli(json_argv + ["--jobs", "4"]))

    rep_argv = ["represent", "--form", "x2+y2+3z2", "--m", "41", "--json"]
    rep_ok = run_cli(rep_argv) == run_cli(rep_argv)

    pooled = pool_sizes == [4, 2]
    ok = bool(csv_ok) and json_ok and rep_ok and pooled
    report("determinism", ok, "pools %r" % pool_sizes)
    assert csv_ok
    assert json_ok
    assert rep_ok
    assert pooled


def test_golden_fixture(report):
    w = build_witness(TernaryForm.D122, 3)
    expected = dict(q=73, t=1, b=17, h=2, point=(1, -4, -2), r1=-1, n=1,
                    binary=(1, 0), representation=(1, 0, 1))
    actual = dict(w.construction._asdict(), representation=w.representation)
    ok = isinstance(w, Witness) and actual == expected and verify_witness(w)
    report("golden-fixture", ok, "got %r" % (actual,))
    assert actual == expected
    assert verify_witness(w)
