"""Case profiles for the witness construction.

Every eligible squarefree core falls into exactly one profile.  A profile
fixes the whole shape of the construction:

* which residue class the auxiliary prime q is drawn from,
* the modular parameter t with t^2 = -1/(t_den_factor * q) mod n0, the odd
  part of the core, and the character condition that makes it solvable:
  the Legendre symbol (-t_den_factor * q / p) = 1 at each prime p of n0,
* the pair (b, h) with b^2 + gamma*n0 = d*q*h,
* the integer quadratic form F = rho*R^2 + (e^2 + gamma*n0*y^2) / delta,
  with delta = delta_factor*q, e = alpha*q*x + b*y and R = t*e + n0*z,
  whose value at the searched lattice point equals the target (F is
  stated once, in lattice.py), and
* how the binary descent output (a, beta) and R1 assemble into a
  representation by the ternary form.

The table holds the free constants of each case: q's residue class,
gamma, d, delta, alpha, rho and the assembly.  What follows from them is
derived, and only the last fact below, the parity of |y|, is also stored,
as the y_parity column:

* the binary descent constant c, the form's third coefficient.
* t's denominator.  delta*F = rho*delta*R^2 + e^2 + gamma*n0*y^2 is
  (rho*delta*t^2 + 1)*e^2 (mod n0), so t_den_factor = rho*delta_factor.
* b's divisibility rule.  b is the smaller of the roots r, q - r of
  b^2 = -gamma*n0 (mod q) with d*q dividing b^2 + gamma*n0
  (pipeline.solve_bh).  q is an odd prime above the core and gamma, so
  0 < r < q and r, q - r have opposite parity: for d = 1 both fit, for
  d = 2 the one with the parity of gamma*n0 fits, and for d = 4 (T3A,
  T3B) gamma*n0 = 3 (mod 4), so the odd one fits.  No b >= q is needed.
* h is odd when d = 4.  b is odd, so b^2 = 1 (mod 8), and gamma*n0 = 3
  (mod 8) in both rows (7*5, 3*1), so 4qh = b^2 + gamma*n0 = 4 (mod 8).
* the existence of a lattice point.  In lattice coordinates (x, y, z),
  F = rho*R^2 + e^2/delta + gamma*n0*y^2/delta, and (x, y, z) -> (e, y, R)
  has determinant alpha*q*n0, so F's Gram determinant is
  (alpha*q*n0)^2 * rho*gamma*n0/delta^2 = det_factor*n0^3 with
  det_factor = rho*alpha^2*gamma/delta_factor^2: 2 in T1A-T2C, 7/4 in T3A
  and 3/4 in T3B.  The ellipsoid F < 2*n0 has volume
  (4/3)*pi*(2*n0)^(3/2)/sqrt(det_factor*n0^3), which is above 8 exactly
  when 36*det_factor < 8*pi^2 (about 78.96), as in every row.  So by
  Minkowski's convex body theorem (Cassels, An Introduction to the
  Geometry of Numbers, ch. III) some lattice point has 0 < F < 2*n0, since
  F is positive definite, and F = 0 (mod n0) forces F = n0 (the argument
  of Ankeny, Sums of three squares, Proc. AMS 8, 1957).  tests/test_cases.py
  checks the determinant and the bound in every row.
* the parity of |y| at a point with F = n0, in two rows.  delta*F = n0*delta
  reads rho*delta*R^2 + e^2 + gamma*n0*y^2 = delta_factor*q*n0.  In T1B
  (rho = delta_factor = alpha = 2, gamma = 1) e = 2qx + by has the parity
  of y, as b is odd: an even y makes the left side 0 (mod 4) and the right
  side 2qn0 = 2 (mod 4), so |y| is odd.  In T2C (rho = delta_factor =
  alpha = 1, gamma = 2, q = 1 (mod 8)) an odd y leaves
  R^2 + e^2 = qn0 - 2n0 = -n0 (mod 8), which is 3 or 7 for n0 = 1, 5
  (mod 8) and no sum of two squares, so |y| is even.  In every other row
  both parities pass the congruence mod 64 (tests/test_cases.py enumerates
  it for each row), so the lattice scan visits every |y| there.

For the even-core profiles of x^2+2y^2+2z^2 the lattice is restricted to
even x: x = 2x' (x_substituted), F is taken in the free integer x', and
lattice.py alone converts between x and x'.

Even cores of x^2+y^2+2z^2 (case T2D) have no row here: they reuse the
x^2+2y^2+2z^2 profile of m1 = core/2 and map its (u, v, w) to (2v, 2w, u),
as stated once in pipeline.construction_frame.
"""

from collections import namedtuple

from .errors import InternalError
from .forms import TernaryForm

__all__ = ["CaseProfile", "PROFILES", "select_case"]

# Assembly tags: how (a, beta, R1) fills the (x, y, z) slots of the form.
ASSEMBLY_A_B_R = "a_b_r"      # (a, beta, R1)         e.g. m = a^2 + 2b^2 + 2R1^2
ASSEMBLY_2B_A_R = "2b_a_r"    # (2*beta, a, R1)       m = (2b)^2 + 2a^2 + 2R1^2
ASSEMBLY_R_A_B = "r_a_b"      # (R1, a, beta)         m = R1^2 + a^2 + 2b^2
ASSEMBLY_A_R_B = "a_r_b"      # (a, R1, beta)         m = a^2 + R1^2 + c*b^2


class CaseProfile(namedtuple("CaseProfile", [
    "id",                     # str
    "form",                   # TernaryForm
    "core_parity",            # str, "odd" or "even"
    "core_residues",          # tuple, residues mod 8 of the core's odd part
    "q_residue",              # (r, M): q = r (mod M)
    "gamma",                  # int, b^2 = -gamma * n0 (mod q)
    "d_factor",               # int, b^2 + gamma*n0 = (d_factor * q) * h
    "delta_factor",           # int, binary part clears to ((alpha*q*x + b*y)^2
    "alpha",                  # int,   + gamma*n0*y^2) / (delta_factor * q)
    "rho",                    # int, F = rho * R^2 + binary part
    "assembly",               # str, an ASSEMBLY_* tag
    "y_parity",               # the parity of |y| at every lattice point with
                              #   F = n0, or None where both occur
], defaults=(None,))):
    __slots__ = ()

    @property
    def x_substituted(self) -> bool:
        """True when the lattice x-coordinate is 2x' and the enumeration
        runs over the free variable x'."""
        return self.core_parity == "even"

    @property
    def c(self) -> int:
        """The binary descent constant: n = a^2 + c*beta^2 is solved, and c
        is the form's third coefficient."""
        return self.form.coefficients[2]

    @property
    def t_den_factor(self) -> int:
        """rho * delta_factor: t^2 = -1/(t_den_factor * q) (mod n0) makes
        F vanish mod n0."""
        return self.rho * self.delta_factor

    def n0(self, core: int) -> int:
        """Odd part of the core: the value F must take, the modulus of t
        and R's z-coefficient."""
        return core // 2 if self.core_parity == "even" else core

    def assemble(self, a: int, beta: int, r1: int) -> tuple:
        r1 = abs(r1)
        if self.assembly == ASSEMBLY_A_B_R:
            return (a, beta, r1)
        if self.assembly == ASSEMBLY_2B_A_R:
            return (2 * beta, a, r1)
        if self.assembly == ASSEMBLY_R_A_B:
            return (r1, a, beta)
        if self.assembly == ASSEMBLY_A_R_B:
            return (a, r1, beta)
        raise InternalError("unknown assembly tag %r" % (self.assembly,))


PROFILES = {
    p.id: p
    for p in (
        # x^2 + 2y^2 + 2z^2, odd core = 3 (mod 8):
        #   F = 2R^2 + q x^2 + 2b xy + 2h y^2, R = tq x + bt y + core z
        CaseProfile(
            id="T1A", form=TernaryForm.D122, core_parity="odd", core_residues=(3,),
            q_residue=(1, 8), gamma=1, d_factor=2, delta_factor=1, alpha=1, rho=2,
            assembly=ASSEMBLY_A_B_R,
        ),
        # odd core = 1, 5 (mod 8):
        #   F = 2R^2 + 2q x^2 + 2b xy + h y^2, R = 2tq x + bt y + core z
        CaseProfile(
            id="T1B", form=TernaryForm.D122, core_parity="odd", core_residues=(1, 5),
            q_residue=(1, 8), gamma=1, d_factor=2, delta_factor=2, alpha=2, rho=2,
            assembly=ASSEMBLY_A_B_R, y_parity=1,
        ),
        # even core 2*m1; the three profiles differ only in q's residue class.
        #   F = R^2 + 2q x'^2 + 2b x'y + h y^2, R = 2tq x' + bt y + m1 z
        CaseProfile(
            id="T1C", form=TernaryForm.D122, core_parity="even", core_residues=(1, 3),
            q_residue=(1, 8), gamma=2, d_factor=2, delta_factor=2, alpha=2, rho=1,
            assembly=ASSEMBLY_2B_A_R,
        ),
        CaseProfile(
            id="T1D", form=TernaryForm.D122, core_parity="even", core_residues=(5,),
            q_residue=(5, 8), gamma=2, d_factor=2, delta_factor=2, alpha=2, rho=1,
            assembly=ASSEMBLY_2B_A_R,
        ),
        CaseProfile(
            id="T1E", form=TernaryForm.D122, core_parity="even", core_residues=(7,),
            q_residue=(3, 8), gamma=2, d_factor=2, delta_factor=2, alpha=2, rho=1,
            assembly=ASSEMBLY_2B_A_R,
        ),
        # x^2 + y^2 + 2z^2, odd core = 3 (mod 8):
        #   F = R^2 + 2q x^2 + 2b xy + h y^2, R = 2tq x + bt y + core z
        CaseProfile(
            id="T2A", form=TernaryForm.D112, core_parity="odd", core_residues=(3,),
            q_residue=(1, 8), gamma=2, d_factor=2, delta_factor=2, alpha=2, rho=1,
            assembly=ASSEMBLY_R_A_B,
        ),
        # odd core = 7 (mod 8): as T2A but q = 3 (mod 8)
        CaseProfile(
            id="T2B", form=TernaryForm.D112, core_parity="odd", core_residues=(7,),
            q_residue=(3, 8), gamma=2, d_factor=2, delta_factor=2, alpha=2, rho=1,
            assembly=ASSEMBLY_R_A_B,
        ),
        # odd core = 1, 5 (mod 8):
        #   F = R^2 + q x^2 + 2b xy + h y^2, R = tq x + bt y + core z
        CaseProfile(
            id="T2C", form=TernaryForm.D112, core_parity="odd", core_residues=(1, 5),
            q_residue=(1, 8), gamma=2, d_factor=1, delta_factor=1, alpha=1, rho=1,
            assembly=ASSEMBLY_R_A_B, y_parity=0,
        ),
        # x^2 + y^2 + 7z^2, core = 5 (mod 8), 7 not dividing the core:
        #   F = R^2 + q x^2 + b xy + h y^2, R = 2tq x + bt y + core z
        CaseProfile(
            id="T3A", form=TernaryForm.D117, core_parity="odd", core_residues=(5,),
            q_residue=(1, 28), gamma=7, d_factor=4, delta_factor=4, alpha=2, rho=1,
            assembly=ASSEMBLY_A_R_B,
        ),
        # x^2 + y^2 + 3z^2, core = 1 (mod 8), 3 not dividing the core.
        CaseProfile(
            id="T3B", form=TernaryForm.D113, core_parity="odd", core_residues=(1,),
            q_residue=(1, 12), gamma=3, d_factor=4, delta_factor=4, alpha=2, rho=1,
            assembly=ASSEMBLY_A_R_B,
        ),
    )
}


def select_case(form: TernaryForm, core: int) -> CaseProfile:
    """The unique profile covering an eligible squarefree core."""
    if core < 1:
        raise ValueError("select_case requires core >= 1, got %r" % (core,))
    parity = "even" if core % 2 == 0 else "odd"
    odd_part = core // 2 if parity == "even" else core
    for profile in PROFILES.values():
        if (
            profile.form is form
            and profile.core_parity == parity
            and odd_part % 8 in profile.core_residues
        ):
            return profile
    raise InternalError(
        "no case profile covers core %d for %s" % (core, form.cli_name)
    )
