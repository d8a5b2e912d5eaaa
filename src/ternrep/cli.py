"""Command-line surface.

Subcommands: represent, witness, check, oracle, scan, and verify, which
re-checks one witness JSON object read from stdin.  All output is
deterministic for fixed arguments: JSON objects use a pinned field order,
scan CSV uses a pinned header, line endings are LF, and --help and usage
errors wrap at a fixed width, whatever the terminal.

Each command returns its answer, (exit code, stdout text, stderr line or
None), and writes nothing; dispatch alone writes stdout, in one write and
one flush, and then the stderr line.

Exit codes: 0 success/representable, 1 obstructed, not representable or a
witness that does not verify, 2 outside the covered cases, 3 internal
error, 4 usage error, output that cannot be written or verify input that
is not a JSON object, 5 resource cap hit.
"""

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .errors import InternalError, ResourceCapError
from .forms import Eligibility, FORM_BY_NAME, TernaryForm, eligibility
from .oracle import check_scan_hi, oracle_triple, scan_compare
from .pipeline import (Witness, build_witness, verdict_fields, witness_fields,
                       witness_from_fields, witness_problems)

__all__ = ["main", "dispatch"]

EXIT_OK = 0
EXIT_OBSTRUCTED = 1
EXIT_OUTSIDE = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 4
EXIT_RESOURCE_CAP = 5

_VERDICT_EXIT = {
    Eligibility.ELIGIBLE: EXIT_OK,
    Eligibility.OBSTRUCTED: EXIT_OBSTRUCTED,
    Eligibility.OUTSIDE_COVERED_CASES: EXIT_OUTSIDE,
}


class _Parser(argparse.ArgumentParser):
    """argparse maps its own errors to exit code 2; the contract says 4.
    Every parser, subparsers included, wraps at a fixed 78 columns: argparse's
    width when COLUMNS is unset and stdout is not a terminal."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=functools.partial(
            argparse.HelpFormatter, width=78), **kwargs)

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


def _json_text(fields: dict) -> str:
    """json.dumps(fields, indent=2) + "\n", byte for byte, for a non-empty
    flat dict whose values are None, bools, ints, strs and lists of ints.
    indent sends json.dumps to its pure-Python encoder, which costs more
    than this direct writer.  Keys and strs go through the string encoder
    that json.dumps itself calls under its default ensure_ascii."""
    lines = []
    for key, value in fields.items():
        if value is None:
            value = "null"
        elif value is True or value is False:
            value = "true" if value else "false"
        elif isinstance(value, int):
            value = str(value)
        elif isinstance(value, str):
            value = encode_basestring_ascii(value)
        elif value:
            value = "[\n    %s\n  ]" % ",\n    ".join(map(str, value))
        else:
            value = "[]"
        lines.append("  %s: %s" % (encode_basestring_ascii(key), value))
    return "{\n%s\n}\n" % ",\n".join(lines)


def _emit(args, fields: dict, text: str, trail: bool = False) -> str:
    """The stdout text of one result: fields as JSON under --json, fields as
    `key: value` lines for a trail, and the text line otherwise."""
    if args.json:
        return _json_text(fields)
    if not trail:
        return text + "\n"
    lines = []
    for key, value in fields.items():
        if isinstance(value, list):
            value = "(%s)" % ", ".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif value is None:
            value = "-"
        lines.append("%s: %s\n" % (key, value))
    return "".join(lines)


def _cannot_write(what: str, exc: OSError) -> tuple:
    return EXIT_USAGE, "", "cannot write %s: %s" % (what, exc.strerror or exc)


def _verdict_line(verdict, m: int) -> str:
    return "%s: %d %s" % (verdict.kind.value, m, verdict.detail)


def _cmd_represent(args, trail: bool) -> tuple:
    if args.m < 1:
        return EXIT_USAGE, "", "--m must be at least 1"
    form = FORM_BY_NAME[args.form]
    if args.fallback_oracle and form.exact:
        return EXIT_USAGE, "", "--fallback-oracle applies only to " + " and ".join(
            f.cli_name for f in TernaryForm if not f.exact)

    result = build_witness(form, args.m)
    if isinstance(result, Witness):
        rep, code = result.representation, EXIT_OK
        fields = witness_fields(result)
        if not fields["verified"]:
            return EXIT_INTERNAL, "", "witness failed verification"
    else:
        fallback = (args.fallback_oracle
                    and result.kind is Eligibility.OUTSIDE_COVERED_CASES)
        rep = oracle_triple(form, args.m) if fallback else None
        fields = verdict_fields(form, args.m, result, rep)
        code = (EXIT_OK if rep is not None else
                EXIT_OBSTRUCTED if fallback else _VERDICT_EXIT[result.kind])
    text = (_verdict_line(result, args.m) if rep is None
            else _equation(form, args.m, rep))
    return code, _emit(args, fields, text, trail), None


def _cmd_check(args) -> tuple:
    if args.m < 1:
        return EXIT_USAGE, "", "--m must be at least 1"
    form = FORM_BY_NAME[args.form]
    verdict = eligibility(form, args.m)
    return _VERDICT_EXIT[verdict.kind], _emit(args, {
        "form": form.cli_name,
        "m": args.m,
        "eligible": verdict.eligible,
        "verdict": verdict.kind.value,
        "detail": verdict.detail,
    }, _verdict_line(verdict, args.m)), None


def _cmd_oracle(args) -> tuple:
    if args.m < 0:
        return EXIT_USAGE, "", "--m must be nonnegative"
    form = FORM_BY_NAME[args.form]
    rep = oracle_triple(form, args.m)
    text = "no representation: %d" % args.m if rep is None else _equation(form, args.m, rep)
    return EXIT_OK if rep is not None else EXIT_OBSTRUCTED, _emit(args, {
        "form": form.cli_name,
        "m": args.m,
        "found": rep is not None,
        "representation": None if rep is None else list(rep),
    }, text), None


def _cmd_scan(args) -> tuple:
    if args.jobs < 1:
        return EXIT_USAGE, "", "--jobs must be at least 1"
    if not 1 <= args.lo <= args.hi:
        return EXIT_USAGE, "", "scan requires 1 <= LO <= HI"
    check_scan_hi(args.hi)
    form = FORM_BY_NAME[args.form]
    try:
        # Opened after the checks above, so a refused scan leaves an existing
        # FILE alone, and before the scan, as a shell redirection would be,
        # so an unwritable path fails before any work.
        fh = (None if args.out is None
              else open(args.out, "w", encoding="utf-8", newline="\n"))
    except OSError as exc:
        return _cannot_write("--out " + args.out, exc)
    text = None
    try:
        with fh or contextlib.nullcontext():
            report = scan_compare(form, args.lo, args.hi, jobs=args.jobs)
            text = report.to_json() if args.json else report.to_csv()
            if fh is not None:
                fh.write(text)
                text = ""
    except OSError as exc:
        # A failed write or close of FILE; the scan's own errors propagate.
        if text is None:
            raise
        return _cannot_write("--out " + args.out, exc)
    if not report.all_agree:
        return EXIT_INTERNAL, text, "scan found disagreement rows"
    return EXIT_OK, text, None


def _cmd_verify(args) -> tuple:
    try:
        doc = json.loads(sys.stdin.read())
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        return EXIT_USAGE, "", "stdin is not JSON: %s" % exc
    if not isinstance(doc, dict):
        return EXIT_USAGE, "", "stdin is not a JSON object"
    problems = witness_problems(witness_from_fields(doc))
    return (EXIT_OBSTRUCTED if problems else EXIT_OK,
            "".join(problem + "\n" for problem in problems), None)


@functools.cache
def _build_parser() -> tuple:
    """The argument tree, built once per process, and the parser of each
    command by name; parsing leaves both unchanged.  Each command's parser
    binds its handler as args.run.  The top-level parser answers --help,
    unknown commands and leftover arguments; a command's parser answers
    its own --help and usage errors."""
    parser = _Parser(prog="ternrep",
                     description="Constructive representation by the ternary "
                                 "forms x^2+2y^2+2z^2, x^2+y^2+2z^2, "
                                 "x^2+y^2+3z^2 and x^2+y^2+7z^2.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    forms = sorted(FORM_BY_NAME)
    commands = {}

    for name, help_text, run in (
        ("represent", "construct one representation",
         functools.partial(_cmd_represent, trail=False)),
        ("witness", "represent with the full audit trail",
         functools.partial(_cmd_represent, trail=True)),
        ("check", "eligibility only", _cmd_check),
        ("oracle", "brute force only", _cmd_oracle),
    ):
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--form", required=True, choices=forms)
        p.add_argument("--m", required=True, type=int)
        p.add_argument("--json", action="store_true")
        if name in ("represent", "witness"):
            p.add_argument("--fallback-oracle", action="store_true")
        p.set_defaults(run=run)

    p_scan = commands["scan"] = sub.add_parser(
        "scan", help="compare pipeline and oracle over a range")
    p_scan.add_argument("--form", required=True, choices=forms)
    p_scan.add_argument("--lo", required=True, type=int)
    p_scan.add_argument("--hi", required=True, type=int)
    p_scan.add_argument("--json", action="store_true")
    p_scan.add_argument("--out", metavar="FILE")
    p_scan.add_argument("--jobs", type=int, default=1, metavar="N")
    p_scan.set_defaults(run=_cmd_scan)

    commands["verify"] = sub.add_parser(
        "verify", help="re-check a witness JSON object read from stdin")
    commands["verify"].set_defaults(run=_cmd_verify)
    return parser, commands


def _answer(argv) -> tuple:
    """(exit code, stdout text, stderr line or None) of one command.

    When argv[0] names a command, that command's parser alone parses the
    rest, the call the top-level parser would make itself.  The top-level
    parser parses the whole argv when argv[0] names no command or arguments
    are left over, so that its own usage and errors answer those.
    argparse's --help text and usage errors are caught in StringIOs and
    answered like a command's; so are the errors a command raises."""
    parser, commands = _build_parser()
    help_text, usage = io.StringIO(), io.StringIO()
    try:
        try:
            with contextlib.redirect_stdout(help_text), contextlib.redirect_stderr(usage):
                command = commands.get(argv[0]) if argv else None
                args, rest = command.parse_known_args(argv[1:]) if command else (None, None)
                if command is None or rest:
                    args = parser.parse_args(argv)
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else EXIT_USAGE,
                    help_text.getvalue(), usage.getvalue().rstrip("\n") or None)
        return args.run(args)
    except ResourceCapError as exc:
        return EXIT_RESOURCE_CAP, "", "resource cap: %s" % exc
    except InternalError as exc:
        return EXIT_INTERNAL, "", "internal error: %s" % exc
    except Exception as exc:  # no stack traces on the CLI surface
        return (EXIT_INTERNAL, "",
                "internal error: %s: %s" % (type(exc).__name__, exc))


def dispatch(argv, out, err) -> int:
    """Parse argv (no program name), run one command and write its answer.

    Every byte goes to the streams out and err: the command's output and
    messages, and argparse's --help and usage errors too.  Commands return
    their answer and write nothing.  A non-empty stdout text is written to
    out in a single write and flushed; a failed write or flush exits 4 with
    one `cannot write output` line instead of the command's own.  The
    stderr line follows on err; a failed write of it leaves the exit code
    as it is.  Returns the exit code instead of raising SystemExit so the
    function is directly testable.
    """
    code, text, line = _answer(argv)
    if text:
        try:
            out.write(text)
            out.flush()
        except OSError as exc:
            code, _, line = _cannot_write("output", exc)
    if line is not None:
        with contextlib.suppress(OSError):
            err.write(line + "\n")
    return code


def main(argv=None) -> int:
    if None in (sys.stdin, sys.stdout, sys.stderr):
        # Python sets a standard stream that the process started with closed
        # to None.  devnull opened for reading stands in for it: it reads as
        # empty input, and a write to it raises io.UnsupportedOperation, an
        # OSError, so that a closed stdout is output that cannot be written.
        closed = open(os.devnull, encoding="utf-8")
        sys.stdin, sys.stdout, sys.stderr = (
            stream or closed for stream in (sys.stdin, sys.stdout, sys.stderr))
    code = dispatch(sys.argv[1:] if argv is None else argv, sys.stdout, sys.stderr)
    try:
        sys.stdout.flush()
    except OSError:
        # dispatch has reported the failed flush; the bytes are still in
        # stdout's buffer, and the flush at interpreter exit would fail on
        # them again and change the exit code, so they go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
