"""The four diagonal ternary forms and their local representability
conditions.

Covered forms and the classical facts driving eligibility:

* x^2 + 2y^2 + 2z^2 represents m  iff  m is not of the form 4^k(8l+7)
* x^2 +  y^2 + 2z^2 represents m  iff  m is not of the form 4^k(16l+14)
* x^2 +  y^2 + 7z^2 represents m  if   m = 4^k(8l+5) and ord_7(m) is even
* x^2 +  y^2 + 3z^2 represents m  if   m = 4^k(8l+1) and ord_3(m) is even

The first two are equivalences (TernaryForm.exact); the last two are the
sufficient families this pipeline covers (other m are reported as outside
the covered cases, not as unrepresentable).  Each fact is one _RULES row.
"""

import enum
from collections import namedtuple

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

    @property
    def exact(self) -> bool:
        """True when every m that eligibility rules out is obstructed."""
        return _RULES[self][2] is None


FORM_BY_NAME = {form.cli_name: form for form in TernaryForm}


class Eligibility(enum.Enum):
    ELIGIBLE = "eligible"
    OBSTRUCTED = "obstructed"
    OUTSIDE_COVERED_CASES = "outside-covered-cases"


class EligibilityVerdict(namedtuple("EligibilityVerdict", "kind detail")):
    """kind, an Eligibility, and detail, a str saying why."""

    __slots__ = ()

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


# (modulus, residue, prime) per form: an exact form (prime None) represents
# m iff m / 4^k != residue (mod modulus); the others cover the m with
# m / 4^k = residue (mod modulus) and ord_prime(m) even.
_RULES = {
    TernaryForm.D122: (8, 7, None),
    TernaryForm.D112: (16, 14, None),
    TernaryForm.D117: (8, 5, 7),
    TernaryForm.D113: (8, 1, 3),
}


def _verdict_pair(modulus: int, residue: int, prime) -> tuple:
    """(covered, not covered) verdicts of a _RULES row, shared by all calls."""
    family = "4^k(%dl+%d)" % (modulus, residue)
    if prime is None:
        return (EligibilityVerdict(Eligibility.ELIGIBLE, "not of the form " + family),
                EligibilityVerdict(Eligibility.OBSTRUCTED, "stripped residue %d (mod %d): m lies "
                                   "in the excluded family %s" % (residue, modulus, family)))
    cases = "%s with ord_%d(m) even" % (family, prime)
    return (EligibilityVerdict(Eligibility.ELIGIBLE, "of the form " + cases),
            EligibilityVerdict(Eligibility.OUTSIDE_COVERED_CASES, "covered cases are " + cases))


_VERDICTS = {form: _verdict_pair(*rule) for form, rule in _RULES.items()}


def eligibility(form: TernaryForm, m: int) -> EligibilityVerdict:
    """Classify m >= 1 for the given form without any searching.

    The verdict is purely arithmetic: strip factors of 4, then test the
    residue (and the 3- or 7-adic valuation) that the form's _RULES row names.
    """
    if m < 1:
        raise ValueError("eligibility requires m >= 1, got %r" % (m,))
    modulus, residue, prime = _RULES[form]
    _, stripped = _strip_fours(m)
    if prime is None:
        covered = stripped % modulus != residue
    else:
        covered = stripped % modulus == residue and ord_p(stripped, prime) % 2 == 0
    return _VERDICTS[form][0 if covered else 1]


def reduce_to_core(m: int) -> tuple:
    """Split m >= 1 as 4^k * s^2 * core, s odd and core squarefree.  Past 4^k
    at most one 2 is left, so only the odd part is factored and bounded by
    PRIMALITY_LIMIT.  An eligible m has a core eligible for the same form."""
    if m < 1:
        raise ValueError("reduce_to_core requires m >= 1, got %r" % (m,))
    k, m = _strip_fours(m)
    even = m % 2 == 0
    s, core = squarefree_decompose(m >> even)
    return k, s, core << even


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
