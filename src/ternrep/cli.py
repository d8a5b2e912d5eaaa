"""Command-line surface.

Subcommands: represent, witness, check, oracle, scan, selftest.  All
output is deterministic for fixed arguments: JSON objects use a pinned
field order, scan CSV uses a pinned header, and line endings are LF.

Exit codes: 0 success/representable, 1 obstructed or not representable,
2 outside the covered cases, 3 internal error, 4 usage error, 5 resource
cap hit.
"""

import argparse
import functools
import json
import sys

from .errors import InternalError, ResourceCapError
from .forms import Eligibility, FORM_BY_NAME, TernaryForm, eligibility, evaluate
from .oracle import descent_mismatches, oracle_triple, scan_compare
from .pipeline import Construction, Witness, build_witness, verify_witness

__all__ = ["main", "dispatch"]

EXIT_OK = 0
EXIT_OBSTRUCTED = 1
EXIT_OUTSIDE = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 4
EXIT_RESOURCE_CAP = 5

_VERDICT_EXIT = {
    Eligibility.OBSTRUCTED: EXIT_OBSTRUCTED,
    Eligibility.OUTSIDE_COVERED_CASES: EXIT_OUTSIDE,
}

_FALLBACK_FORMS = (TernaryForm.D113, TernaryForm.D117)

# Marker used in the "case" slot when a representation came from the
# brute-force fallback rather than the constructive pipeline.
ORACLE_CASE = "ORACLE"


class _Parser(argparse.ArgumentParser):
    """argparse maps its own errors to exit code 2; the contract says 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _equation(form: TernaryForm, m: int, rep) -> str:
    parts = []
    for coeff, value in zip(form.coefficients, rep):
        if coeff == 1:
            parts.append("%d^2" % value)
        else:
            parts.append("%d*%d^2" % (coeff, value))
    return "%d = %s" % (m, " + ".join(parts))


def _json_fields(form, m, *, eligible, verdict, case=None, k=None, s=None,
                 core=None, construction=None, representation=None,
                 verified=False) -> dict:
    con = construction
    if con is None:
        built = dict.fromkeys(("q", "t", "b", "h", "point", "R",
                               "binary_value", "binary_rep"))
    else:
        built = {"q": con.q, "t": con.t, "b": con.b, "h": con.h,
                 "point": list(con.point), "R": con.r1,
                 "binary_value": con.n, "binary_rep": list(con.binary)}
    return {
        "form": form.cli_name,
        "m": m,
        "eligible": eligible,
        "verdict": verdict,
        "case": case,
        "k": k,
        "s": s,
        "core": core,
        **built,
        "representation": None if representation is None else list(representation),
        "verified": verified,
    }


def _witness_fields(w: Witness) -> dict:
    return _json_fields(
        w.form, w.m,
        eligible=True,
        verdict=Eligibility.ELIGIBLE.value,
        case=w.case_id,
        k=w.k, s=w.s, core=w.core,
        construction=w.construction,
        representation=w.representation,
        verified=verify_witness(w),
    )


def _emit_json(out, fields: dict) -> None:
    out.write(json.dumps(fields, indent=2) + "\n")


def _emit_trail(out, fields: dict) -> None:
    for key, value in fields.items():
        if isinstance(value, list):
            value = "(%s)" % ", ".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif value is None:
            value = "-"
        out.write("%s: %s\n" % (key, value))


def _cmd_represent(args, out, err, trail: bool) -> int:
    form = FORM_BY_NAME[args.form]
    if args.fallback_oracle and form not in _FALLBACK_FORMS:
        err.write("--fallback-oracle applies only to x2+y2+3z2 and x2+y2+7z2\n")
        return EXIT_USAGE

    result = build_witness(form, args.m)
    if isinstance(result, Witness):
        fields = _witness_fields(result)
        if not fields["verified"]:
            err.write("witness failed verification\n")
            return EXIT_INTERNAL
        if args.json:
            _emit_json(out, fields)
        elif trail:
            _emit_trail(out, fields)
        else:
            out.write(_equation(form, args.m, result.representation) + "\n")
        return EXIT_OK

    verdict = result
    rep = None
    if args.fallback_oracle and verdict.kind is Eligibility.OUTSIDE_COVERED_CASES:
        rep = oracle_triple(form, args.m)
    fields = _json_fields(
        form, args.m,
        eligible=False,
        verdict=verdict.kind.value,
        case=ORACLE_CASE if rep is not None else None,
        representation=rep,
        verified=rep is not None and evaluate(form, rep) == args.m,
    )
    if args.json:
        _emit_json(out, fields)
    elif trail:
        _emit_trail(out, fields)
    elif rep is not None:
        out.write(_equation(form, args.m, rep) + "\n")
    else:
        out.write("%s: %d %s\n" % (verdict.kind.value, args.m, verdict.detail))
    if rep is not None:
        return EXIT_OK
    if args.fallback_oracle and verdict.kind is Eligibility.OUTSIDE_COVERED_CASES:
        return EXIT_OBSTRUCTED
    return _VERDICT_EXIT[verdict.kind]


def _cmd_check(args, out, err) -> int:
    form = FORM_BY_NAME[args.form]
    verdict = eligibility(form, args.m)
    if args.json:
        _emit_json(out, {
            "form": form.cli_name,
            "m": args.m,
            "eligible": verdict.eligible,
            "verdict": verdict.kind.value,
            "detail": verdict.detail,
        })
    else:
        out.write("%s: %d %s\n" % (verdict.kind.value, args.m, verdict.detail))
    if verdict.eligible:
        return EXIT_OK
    return _VERDICT_EXIT[verdict.kind]


def _cmd_oracle(args, out, err) -> int:
    form = FORM_BY_NAME[args.form]
    rep = oracle_triple(form, args.m)
    if args.json:
        _emit_json(out, {
            "form": form.cli_name,
            "m": args.m,
            "found": rep is not None,
            "representation": None if rep is None else list(rep),
        })
    elif rep is None:
        out.write("no representation: %d\n" % args.m)
    else:
        out.write(_equation(form, args.m, rep) + "\n")
    return EXIT_OK if rep is not None else EXIT_OBSTRUCTED


def _cmd_scan(args, out, err) -> int:
    if not 1 <= args.lo <= args.hi:
        err.write("scan requires 1 <= LO <= HI\n")
        return EXIT_USAGE
    form = FORM_BY_NAME[args.form]
    if args.out is None:
        return _scan_to(out, form, args, err)
    try:
        # Opened before the scan, as a shell redirection would be, so an
        # unwritable path fails before any work.
        fh = open(args.out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        err.write("cannot write --out %s: %s\n" % (args.out, exc.strerror or exc))
        return EXIT_USAGE
    with fh:
        return _scan_to(fh, form, args, err)


def _scan_to(sink, form, args, err) -> int:
    report = scan_compare(form, args.lo, args.hi, jobs=args.jobs)
    if args.json:
        lines = []
        for row in report.rows:
            x, y, z = row.representation if row.representation else (None, None, None)
            lines.append(json.dumps({
                "m": row.m,
                "verdict": row.verdict,
                "pipeline_found": row.pipeline_found,
                "oracle_found": row.oracle_found,
                "agree": row.agree,
                "x": x, "y": y, "z": z,
                "q": row.q,
                "elapsed_micros": row.elapsed_micros,
            }))
        sink.write("[\n" + ",\n".join(lines) + "\n]\n" if lines else "[]\n")
    else:
        sink.write(report.to_csv())
    if not report.all_agree:
        err.write("scan found disagreement rows\n")
        return EXIT_INTERNAL
    return EXIT_OK


def _selftest_suites():
    def golden():
        w = build_witness(TernaryForm.D122, 3)
        expected = Construction(73, 1, 17, 2, (1, -4, -2), -1, 1, (1, 0))
        return (isinstance(w, Witness) and w.construction == expected
                and w.representation == (1, 0, 1) and verify_witness(w))

    def scans():
        for form in TernaryForm:
            if not scan_compare(form, 1, 120).all_agree:
                return False
        return True

    def descent():
        return not descent_mismatches(500)

    def audits():
        for form in TernaryForm:
            for m in range(1, 120):
                w = build_witness(form, m)
                if isinstance(w, Witness) and not verify_witness(w):
                    return False
        return True

    return [("golden fixture", golden), ("oracle scans", scans),
            ("binary descent", descent), ("witness audits", audits)]


def _cmd_selftest(args, out, err) -> int:
    failed = False
    for name, suite in _selftest_suites():
        ok = suite()
        out.write("%s: %s\n" % (name, "ok" if ok else "FAIL"))
        failed = failed or not ok
    return EXIT_INTERNAL if failed else EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(prog="ternrep",
                     description="Constructive representation by the ternary "
                                 "forms x^2+2y^2+2z^2, x^2+y^2+2z^2, "
                                 "x^2+y^2+3z^2 and x^2+y^2+7z^2.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    forms = sorted(FORM_BY_NAME)

    def add_form_m(p):
        p.add_argument("--form", required=True, choices=forms)
        p.add_argument("--m", required=True, type=int)

    for name, help_text in (("represent", "construct one representation"),
                            ("witness", "represent with the full audit trail")):
        p_rep = sub.add_parser(name, help=help_text)
        add_form_m(p_rep)
        p_rep.add_argument("--json", action="store_true")
        p_rep.add_argument("--fallback-oracle", action="store_true")

    p_chk = sub.add_parser("check", help="eligibility only")
    add_form_m(p_chk)
    p_chk.add_argument("--json", action="store_true")

    p_orc = sub.add_parser("oracle", help="brute force only")
    add_form_m(p_orc)
    p_orc.add_argument("--json", action="store_true")

    p_scan = sub.add_parser("scan", help="compare pipeline and oracle over a range")
    p_scan.add_argument("--form", required=True, choices=forms)
    p_scan.add_argument("--lo", required=True, type=int)
    p_scan.add_argument("--hi", required=True, type=int)
    p_scan.add_argument("--json", action="store_true")
    p_scan.add_argument("--out", metavar="FILE")
    p_scan.add_argument("--jobs", type=int, default=1, metavar="N")

    sub.add_parser("selftest", help="run the invariant suites")
    return parser


def dispatch(argv, out=None, err=None) -> int:
    """Parse argv (no program name) and run one command.

    Returns the exit code instead of raising SystemExit so the function
    is directly testable.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        if args.command in ("represent", "witness", "check") and args.m < 1:
            err.write("--m must be at least 1\n")
            return EXIT_USAGE
        if args.command in ("represent", "witness"):
            return _cmd_represent(args, out, err, trail=args.command == "witness")
        if args.command == "check":
            return _cmd_check(args, out, err)
        if args.command == "oracle":
            if args.m < 0:
                err.write("--m must be nonnegative\n")
                return EXIT_USAGE
            return _cmd_oracle(args, out, err)
        if args.command == "scan":
            if args.jobs < 1:
                err.write("--jobs must be at least 1\n")
                return EXIT_USAGE
            return _cmd_scan(args, out, err)
        return _cmd_selftest(args, out, err)
    except ResourceCapError as exc:
        err.write("resource cap: %s\n" % exc)
        return EXIT_RESOURCE_CAP
    except InternalError as exc:
        err.write("internal error: %s\n" % exc)
        return EXIT_INTERNAL
    except Exception as exc:  # no stack traces on the CLI surface
        err.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return EXIT_INTERNAL


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
