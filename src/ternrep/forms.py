"""The four diagonal ternary forms and their local representability
conditions.

Covered forms and the classical facts driving eligibility:

* x^2 + 2y^2 + 2z^2 represents m  iff  m is not of the form 4^k(8l+7)
* x^2 +  y^2 + 2z^2 represents m  iff  m is not of the form 4^k(16l+14)
* x^2 +  y^2 + 7z^2 represents m  if   m = 4^k(8l+5) and ord_7(m) is even
* x^2 +  y^2 + 3z^2 represents m  if   m = 4^k(8l+1) and ord_3(m) is even

The first two are equivalences; the last two are the sufficient families
this pipeline covers (other m are reported as outside the covered cases,
not as unrepresentable).
"""

import enum
from dataclasses import dataclass

from .errors import InternalError
from .factor import ord_p, squarefree_decompose

__all__ = [
    "TernaryForm",
    "FORM_BY_NAME",
    "Eligibility",
    "EligibilityVerdict",
    "evaluate",
    "eligibility",
    "reduce_to_core",
    "lift_representation",
    "checked_representation",
]


class TernaryForm(enum.Enum):
    """Diagonal form c1*x^2 + c2*y^2 + c3*z^2, keyed by its coefficients."""

    D122 = (1, 2, 2)
    D112 = (1, 1, 2)
    D113 = (1, 1, 3)
    D117 = (1, 1, 7)

    @property
    def coefficients(self) -> tuple:
        return self.value

    @property
    def cli_name(self) -> str:
        c1, c2, c3 = self.value
        def term(c, var):
            return "%s%s2" % ("" if c == 1 else str(c), var)
        return "x2+%s+%s" % (term(c2, "y"), term(c3, "z"))


FORM_BY_NAME = {form.cli_name: form for form in TernaryForm}


class Eligibility(enum.Enum):
    ELIGIBLE = "eligible"
    OBSTRUCTED = "obstructed"
    OUTSIDE_COVERED_CASES = "outside-covered-cases"


@dataclass(frozen=True)
class EligibilityVerdict:
    kind: Eligibility
    detail: str

    @property
    def eligible(self) -> bool:
        return self.kind is Eligibility.ELIGIBLE


def evaluate(form: TernaryForm, vec) -> int:
    """Value of the form at an integer triple."""
    x, y, z = vec
    c1, c2, c3 = form.coefficients
    return c1 * x * x + c2 * y * y + c3 * z * z


def _strip_fours(m: int) -> tuple:
    """(k, m / 4^k) for the largest such k."""
    k = 0
    while m % 4 == 0:
        m //= 4
        k += 1
    return k, m


# One shared verdict per form and branch, (covered, not covered): a verdict
# is frozen, so every call returns the same object.
_VERDICTS = {
    TernaryForm.D122: (
        EligibilityVerdict(Eligibility.ELIGIBLE, "not of the form 4^k(8l+7)"),
        EligibilityVerdict(
            Eligibility.OBSTRUCTED,
            "stripped residue 7 (mod 8): m lies in the excluded family 4^k(8l+7)",
        ),
    ),
    TernaryForm.D112: (
        EligibilityVerdict(Eligibility.ELIGIBLE, "not of the form 4^k(16l+14)"),
        EligibilityVerdict(
            Eligibility.OBSTRUCTED,
            "stripped residue 14 (mod 16): m lies in the excluded family 4^k(16l+14)",
        ),
    ),
    TernaryForm.D117: (
        EligibilityVerdict(Eligibility.ELIGIBLE, "of the form 4^k(8l+5) with ord_7(m) even"),
        EligibilityVerdict(
            Eligibility.OUTSIDE_COVERED_CASES,
            "covered cases are 4^k(8l+5) with ord_7(m) even",
        ),
    ),
    TernaryForm.D113: (
        EligibilityVerdict(Eligibility.ELIGIBLE, "of the form 4^k(8l+1) with ord_3(m) even"),
        EligibilityVerdict(
            Eligibility.OUTSIDE_COVERED_CASES,
            "covered cases are 4^k(8l+1) with ord_3(m) even",
        ),
    ),
}


def eligibility(form: TernaryForm, m: int) -> EligibilityVerdict:
    """Classify m >= 1 for the given form without any searching.

    The verdict is purely arithmetic: strip factors of 4, then test the
    residue (and the 3- or 7-adic valuation for the two covered-case forms).
    """
    if m < 1:
        raise ValueError("eligibility requires m >= 1, got %r" % (m,))
    _, stripped = _strip_fours(m)
    if form is TernaryForm.D122:
        covered = stripped % 8 != 7
    elif form is TernaryForm.D112:
        covered = stripped % 16 != 14
    elif form is TernaryForm.D117:
        covered = stripped % 8 == 5 and ord_p(m, 7) % 2 == 0
    elif form is TernaryForm.D113:
        covered = stripped % 8 == 1 and ord_p(m, 3) % 2 == 0
    else:
        raise InternalError("unknown form %r" % (form,))
    return _VERDICTS[form][0 if covered else 1]


def reduce_to_core(form: TernaryForm, m: int) -> tuple:
    """Split m = 4^k * s^2 * core with s odd and core squarefree (core is
    odd or twice an odd squarefree number).

    Eligibility of m implies eligibility of core for the same form.
    """
    verdict = eligibility(form, m)
    if not verdict.eligible:
        raise ValueError("reduce_to_core requires eligible m: %s" % verdict.detail)
    k, m = _strip_fours(m)
    odd = m // 2 if m % 2 == 0 else m
    s, odd_core = squarefree_decompose(odd)
    core = odd_core * 2 if m % 2 == 0 else odd_core
    return k, s, core


def lift_representation(vec, k: int, s: int) -> tuple:
    """Scale a representation of core up to one of 4^k * s^2 * core."""
    factor = (1 << k) * s
    x, y, z = vec
    return (factor * x, factor * y, factor * z)


def checked_representation(form: TernaryForm, m: int, vec) -> tuple:
    """Return vec after confirming it actually represents m."""
    if evaluate(form, vec) != m:
        raise InternalError(
            "representation %r does not evaluate to %d under %s"
            % (vec, m, form.cli_name)
        )
    return tuple(vec)
