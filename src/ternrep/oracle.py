"""Exhaustive-search ground truth and the pipeline-vs-oracle checks.

The brute-force searches are the reference the constructive pipeline is
measured against; their scan orders are fixed so results are reproducible.
A single search costs Theta(m) when m is not represented, so it is bounded:
brute_force_ternary stops with ResourceCapError after ORACLE_STEP_BUDGET
(x, y) steps, and oracle_triple answers the m that a classical criterion
rules out (the local obstruction of the two exact forms, Dickson's
9^k(9l+6) for x^2+y^2+3z^2) without searching at all, and refuses any m
at or above PRIMALITY_LIMIT.

Range checks decide representability for every value at once instead:
represented_bits marks all values <= hi of a diagonal form in one bitset,
built from about sqrt(hi) big-integer shifts in hi/8 bytes.  scan_compare
builds it once per scan and reads oracle_found from it.  The rows whose
oracle triple it prints get their triples from one first_triples sweep
per chunk, which walks (x, y) in brute_force_ternary's order and z only
over the values that land in the chunk's range.  Scans are bounded by
SCAN_HI_LIMIT.

This module sits downstream of the pipeline: it imports the pipeline, and
no module it imports imports it back.
"""

import itertools
import json
import math
import os
from collections import namedtuple

from .arith import PRIMALITY_LIMIT
from .errors import InternalError, ResourceCapError
from .forms import Eligibility, TernaryForm, eligibility
from .pipeline import Witness, build_witness

__all__ = ["brute_force_ternary", "first_triples", "oracle_triple",
           "dickson_excluded", "ORACLE_STEP_BUDGET", "represented_bits",
           "SCAN_HI_LIMIT", "POOL_MIN_ROWS", "ScanRow", "ScanReport",
           "scan_compare"]

CSV_HEADER = "m,verdict,pipeline_found,oracle_found,agree,x,y,z,q,elapsed_micros"
_SCAN_COLUMNS = CSV_HEADER.split(",")
_CSV_WORDS = {None: "", False: "false", True: "true"}

# Largest m a scan accepts, so that every scan is bounded.  The bitset to
# 2^22 takes 512 KiB and 0.9-1.5 s to build (2-vCPU Xeon, Python 3.11.7).
SCAN_HI_LIMIT = 2**22

# Most (x, y) steps one brute_force_ternary call may take, so that every
# single-m search is bounded.  It covers the whole search for m up to about
# 2*10^7 on x^2+y^2+cz^2; 2^24 steps take 2-4 s (2-vCPU Xeon, Python 3.11.7).
ORACLE_STEP_BUDGET = 2**24

# Fewest rows per worker for which scan_compare starts a process pool, so
# that the pool never makes a scan slower.  Measured with interleaved
# --jobs 1 / --jobs 2 pairs, 10 per cell, windows at the start, middle and
# end of [1, 20000], all four forms (2-vCPU Xeon, Python 3.11.7): 2 workers
# beat 1 in at least 9 of 10 pairs in every cell from 8000 rows on, and not
# at 6000 or below.  The rows of x^2+y^2+3z^2 and x^2+y^2+7z^2 are cheap,
# so the pool's start-up pays off later on them than on the other two forms.
POOL_MIN_ROWS = 4000


def check_scan_hi(hi: int) -> None:
    """Raise ResourceCapError when a scan's hi is above SCAN_HI_LIMIT."""
    if hi > SCAN_HI_LIMIT:
        raise ResourceCapError(
            "scan hi %d is above the scan limit %d" % (hi, SCAN_HI_LIMIT)
        )


def brute_force_ternary(form: TernaryForm, m: int):
    """Lexicographically first (x, y, z) with all entries >= 0 representing
    m, scanning x outermost, then y; None when m is not represented.

    Raises ResourceCapError when the answer needs more than
    ORACLE_STEP_BUDGET (x, y) steps.
    """
    if m < 0:
        raise ValueError("brute_force_ternary requires m >= 0, got %r" % (m,))
    c1, c2, c3 = form.coefficients
    steps = 0
    for x in range(math.isqrt(m // c1) + 1):
        rx = m - c1 * x * x
        ys = math.isqrt(rx // c2) + 1
        for y in range(min(ys, ORACLE_STEP_BUDGET - steps)):
            rem = rx - c2 * y * y
            if rem % c3 == 0:
                z2 = rem // c3
                z = math.isqrt(z2)
                if z * z == z2:
                    return (x, y, z)
        steps += ys
        if steps > ORACLE_STEP_BUDGET:
            raise ResourceCapError(
                "oracle search for m = %d passed its budget of %d (x, y) steps"
                % (m, ORACLE_STEP_BUDGET)
            )
    return None


def first_triples(form: TernaryForm, ms) -> dict:
    """{m: brute_force_ternary(form, m)} for every m in ms that the form
    represents, found in one sweep; unrepresented m are left out.

    (x, y) run in brute_force_ternary's order, x outermost and y ascending,
    and for each pair z walks only the values with c1*x^2 + c2*y^2 + c3*z^2
    in [min(ms), max(ms)].  At most one z gives a wanted m, so the first
    hit on m is its lexicographically first triple.  The sweep stops once
    every m has one, and is bounded by the pairs below max(ms) otherwise.
    """
    wanted = set(ms)
    if not wanted:
        return {}
    lo, hi = min(wanted), max(wanted)
    if lo < 0:
        raise ValueError("first_triples requires m >= 0, got %r" % (lo,))
    c1, c2, c3 = form.coefficients
    found = {}
    for x in range(math.isqrt(hi // c1) + 1):
        rx = c1 * x * x
        for y in range(math.isqrt((hi - rx) // c2) + 1):
            base = rx + c2 * y * y
            # smallest z with base + c3*z^2 >= lo
            z = 0 if base >= lo else math.isqrt((lo - base - 1) // c3) + 1
            value = base + c3 * z * z
            while value <= hi:
                if value in wanted:
                    wanted.remove(value)
                    found[value] = (x, y, z)
                    if not wanted:
                        return found
                z += 1
                value = base + c3 * z * z
    return found


def oracle_triple(form: TernaryForm, m: int):
    """brute_force_ternary(form, m), except that an m >= 1 which a proven
    criterion rules out is answered None without a search: the obstructed
    m of the two exact forms (their obstruction is local) and, for the
    regular form x^2+y^2+3z^2, Dickson's exceptions 9^k(9l+6).  It raises
    ResourceCapError for m >= PRIMALITY_LIMIT, where steps grow too costly."""
    if m >= PRIMALITY_LIMIT:
        raise ResourceCapError("oracle: %d is at or above the proven primality bound" % m)
    if m >= 1 and (eligibility(form, m).kind is Eligibility.OBSTRUCTED
                   or form is TernaryForm.D113 and dickson_excluded(m)):
        return None
    return brute_force_ternary(form, m)


def dickson_excluded(m: int) -> bool:
    """True iff m >= 1 is 9^k(9l+6), exactly the m that x^2+y^2+3z^2 does
    not represent (Dickson, Modern Elementary Theory of Numbers, 1939)."""
    if m < 1:
        raise ValueError("dickson_excluded requires m >= 1, got %r" % (m,))
    while m % 9 == 0:
        m //= 9
    return m % 9 == 6


def represented_bits(coefficients, hi: int) -> int:
    """Bitset of the values of a diagonal form: bit v is set iff v <= hi and
    sum(c * v_i^2) = v for some non-negative integers v_i.

    Starting from the bit for 0, each coefficient c ORs in the copies
    shifted by c*v^2 <= hi; the result is masked to hi + 1 bits.
    """
    if hi < 0:
        raise ValueError("represented_bits requires hi >= 0, got %r" % (hi,))
    if any(c < 1 for c in coefficients):
        raise ValueError("represented_bits requires positive coefficients")
    mask = (1 << (hi + 1)) - 1
    bits = 1
    for c in coefficients:
        acc = bits
        for v in range(1, math.isqrt(hi // c) + 1):
            acc |= bits << (c * v * v)
        bits = acc & mask
    return bits


def _bit_reader(bits: int, hi: int):
    """O(1) lookup of bits 0..hi of a bitset: one bytes copy, hi/8 bytes."""
    table = bits.to_bytes(hi // 8 + 1, "little")
    return lambda v: table[v >> 3] >> (v & 7) & 1 == 1


class ScanRow(namedtuple("ScanRow", "m verdict pipeline_found oracle_found agree "
                                    "representation q elapsed_micros", defaults=(0,))):
    """One scan row: m, q and elapsed_micros are ints (q None without a
    construction), verdict is a str, the three found/agree flags are bools,
    and representation is a triple or None."""

    __slots__ = ()

    def cells(self) -> tuple:
        """The row's values in CSV_HEADER's column order; empty cells are None."""
        x, y, z = self.representation or (None, None, None)
        return (self.m, self.verdict, self.pipeline_found, self.oracle_found,
                self.agree, x, y, z, self.q, self.elapsed_micros)


class ScanReport(namedtuple("ScanReport", "form lo hi rows", defaults=((),))):
    """The rows of one scan, rendered for the CLI by to_csv (CSV_HEADER,
    then one line per row) and to_json (a JSON array, one object per line
    keyed by CSV_HEADER's columns; empty cells are null).

    form is a TernaryForm, lo and hi are ints, and rows is a tuple of
    ScanRow."""

    __slots__ = ()

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(",".join([
                _CSV_WORDS[v] if v is None or v is True or v is False else str(v)
                for v in row.cells()]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        lines = [json.dumps(dict(zip(_SCAN_COLUMNS, row.cells())))
                 for row in self.rows]
        return "[\n" + ",\n".join(lines) + "\n]\n"


def _scan_rows(form: TernaryForm, lo: int, hi: int, window: int) -> list:
    """Rows for lo..hi; bit m - lo of window is set iff the form represents m.

    Each row's verdict is what build_witness returns, so eligibility runs
    once per row, and a ResourceCapError from the pipeline ends the scan.
    A pipeline find agrees when the oracle finds m too.  A miss agrees
    unless the oracle finds m on one of the two exact forms; the misses
    the oracle finds are the only rows that print the oracle's triple, and
    one first_triples sweep finds all of them once the pipeline is done.
    """
    represented = _bit_reader(window, hi - lo)
    exact = form in (TernaryForm.D122, TernaryForm.D112)
    rows, missed = [], []
    for m in range(lo, hi + 1):
        result = build_witness(form, m)
        oracle_found = represented(m - lo)
        if isinstance(result, Witness):
            con = result.construction
            rows.append(ScanRow(m, Eligibility.ELIGIBLE.value, True, oracle_found,
                                oracle_found, result.representation,
                                None if con is None else con.q))
        elif oracle_found:
            missed.append((len(rows), m, result.kind.value))
            rows.append(None)
        else:
            rows.append(ScanRow(m, result.kind.value, False, False, True, None, None))
    triples = first_triples(form, [m for _, m, _ in missed])
    for i, m, verdict_label in missed:
        rep = triples.get(m)
        if rep is None:
            raise InternalError(
                "bitset marks %d as represented by %s but the search "
                "finds nothing" % (m, form.cli_name)
            )
        rows[i] = ScanRow(m, verdict_label, False, True, not exact, rep, None)
    return rows


def scan_compare(form: TernaryForm, lo: int, hi: int, jobs: int = 1) -> ScanReport:
    """Compare pipeline, exhaustive oracle and the local conditions for
    every m in [lo, hi].

    oracle_found comes from one represented_bits bitset, built before the
    rows are split across processes; a row that the pipeline misses but
    the oracle finds prints brute_force_ternary's triple, found for all
    such rows of a chunk by one first_triples sweep.
    Raises ResourceCapError, before any work, when hi > SCAN_HI_LIMIT, and
    when the pipeline hits a budget on any row.
    For the two equivalence forms a row agrees when pipeline and oracle
    both find or both miss; for the covered-case forms a pipeline find must
    be backed by an oracle find.  Rows are independent, so the range may be
    partitioned across processes; output is identical for any job count.
    The scan uses min(jobs, CPUs, rows // POOL_MIN_ROWS) workers, so each
    worker gets at least POOL_MIN_ROWS rows, and runs in this process when
    that is at most 1.
    """
    if lo < 1 or hi < lo:
        raise ValueError("scan_compare requires 1 <= lo <= hi")
    if jobs < 1:
        raise ValueError("scan_compare requires jobs >= 1")
    check_scan_hi(hi)
    # One bitset per scan, shifted so that bit i stands for m = lo + i.
    window = represented_bits(form.coefficients, hi) >> lo
    span = hi - lo + 1
    workers = min(jobs, os.cpu_count() or 1, span // POOL_MIN_ROWS)
    if workers <= 1:
        return ScanReport(form, lo, hi, tuple(_scan_rows(form, lo, hi, window)))
    import concurrent.futures

    chunk = -(-span // (workers * 4))
    starts = range(lo, hi + 1, chunk)
    ends = [min(hi, start + chunk - 1) for start in starts]
    windows = [window >> (start - lo) & ((1 << (end - start + 1)) - 1)
               for start, end in zip(starts, ends)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        pieces = list(pool.map(_scan_rows, itertools.repeat(form), starts, ends, windows))
    return ScanReport(form, lo, hi, tuple(row for piece in pieces for row in piece))
