"""Case profiles for the witness construction.

Every eligible squarefree core falls into exactly one profile.  A profile
fixes the whole shape of the construction:

* which residue class the auxiliary prime q is drawn from and which
  character condition it must satisfy at the odd primes of the core,
* the modular parameter t with t^2 = -1/(t_den_factor * q) mod the core
  (mod m1 = core/2 for the even-core profiles),
* the pair (b, h) with b^2 + gamma*n0 = d*h and the parity side conditions,
* the integer quadratic form F(x, y, z) = rho*R^2 + u*x^2 + w*x*y + v*y^2
  whose value at the searched lattice point equals the target, and
* how the binary descent output (a, beta) and R1 assemble into a
  representation by the ternary form.

For the even-core profiles of x^2+2y^2+2z^2 the lattice is restricted to
even x; the substitution x = 2x' is already folded into the coefficients,
so the enumeration runs over free integers x'.

Even cores of x^2+y^2+2z^2 (case T2D) have no row here: they reuse the
x^2+2y^2+2z^2 profile of m1 = core/2 and map its (u, v, w) to (2v, 2w, u),
as stated once in pipeline.construction_frame.
"""

from dataclasses import dataclass

from .errors import InternalError
from .forms import TernaryForm

__all__ = ["CaseProfile", "PROFILES", "select_case"]

# Assembly tags: how (a, beta, R1) fills the (x, y, z) slots of the form.
ASSEMBLY_A_B_R = "a_b_r"      # (a, beta, R1)         e.g. m = a^2 + 2b^2 + 2R1^2
ASSEMBLY_2B_A_R = "2b_a_r"    # (2*beta, a, R1)       m = (2b)^2 + 2a^2 + 2R1^2
ASSEMBLY_R_A_B = "r_a_b"      # (R1, a, beta)         m = R1^2 + a^2 + 2b^2
ASSEMBLY_A_R_B = "a_r_b"      # (a, R1, beta)         m = a^2 + R1^2 + c*b^2


@dataclass(frozen=True)
class CaseProfile:
    id: str
    form: TernaryForm
    core_parity: str          # "odd" or "even"
    core_residues: tuple      # residues mod 8 of the core's odd part
    q_residue: tuple          # (r, M): q = r (mod M)
    char_factor: int          # condition jacobi(-char_factor * q, p) == 1
    t_den_factor: int         # t^2 = -1/(t_den_factor * q) mod modulus
    gamma: int                # b^2 = -gamma * n0 (mod q)
    b_parity: str             # "odd", "even" or "free"
    d_factor: int             # b^2 + gamma*n0 = (d_factor * q) * h
    delta_factor: int         # binary part clears to ((alpha*q*x + b*y)^2
    alpha: int                #   + gamma*n0*y^2) / (delta_factor * q)
    rho: int                  # F = rho * R^2 + binary part
    y_bound: tuple            # (num, den): scan bound y^2 < num * q / den
    c: int                    # binary descent constant
    assembly: str
    h_odd: bool = False       # extra side condition on h

    @property
    def x_substituted(self) -> bool:
        """True when the lattice x-coordinate is 2x' and the enumeration
        runs over the free variable x'."""
        return self.core_parity == "even"

    def n0(self, core: int) -> int:
        """Odd part of the core: the value F must take, the modulus of t
        and R's z-coefficient."""
        return core // 2 if self.core_parity == "even" else core

    def binary_coefficients(self, core: int, q: int, b: int, h: int) -> tuple:
        """(u, w, v) with binary part u*x^2 + w*x*y + v*y^2."""
        delta = self.delta_factor * q
        u = self.alpha * self.alpha * q * q // delta
        w = 2 * self.alpha * q * b // delta
        v = (b * b + self.gamma * self.n0(core)) // delta
        return u, w, v

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
            q_residue=(1, 8), char_factor=2, t_den_factor=2, gamma=1, b_parity="odd",
            d_factor=2, delta_factor=1, alpha=1, rho=2, y_bound=(2, 1), c=2,
            assembly=ASSEMBLY_A_B_R,
        ),
        # odd core = 1, 5 (mod 8):
        #   F = 2R^2 + 2q x^2 + 2b xy + h y^2, R = 2tq x + bt y + core z
        CaseProfile(
            id="T1B", form=TernaryForm.D122, core_parity="odd", core_residues=(1, 5),
            q_residue=(1, 8), char_factor=1, t_den_factor=4, gamma=1, b_parity="odd",
            d_factor=2, delta_factor=2, alpha=2, rho=2, y_bound=(4, 1), c=2,
            assembly=ASSEMBLY_A_B_R,
        ),
        # even core 2*m1; the three profiles differ only in q's residue class.
        #   F = R^2 + 2q x'^2 + 2b x'y + h y^2, R = 2tq x' + bt y + m1 z
        CaseProfile(
            id="T1C", form=TernaryForm.D122, core_parity="even", core_residues=(1, 3),
            q_residue=(1, 8), char_factor=2, t_den_factor=2, gamma=2, b_parity="even",
            d_factor=2, delta_factor=2, alpha=2, rho=1, y_bound=(2, 1), c=2,
            assembly=ASSEMBLY_2B_A_R,
        ),
        CaseProfile(
            id="T1D", form=TernaryForm.D122, core_parity="even", core_residues=(5,),
            q_residue=(5, 8), char_factor=2, t_den_factor=2, gamma=2, b_parity="even",
            d_factor=2, delta_factor=2, alpha=2, rho=1, y_bound=(2, 1), c=2,
            assembly=ASSEMBLY_2B_A_R,
        ),
        CaseProfile(
            id="T1E", form=TernaryForm.D122, core_parity="even", core_residues=(7,),
            q_residue=(3, 8), char_factor=2, t_den_factor=2, gamma=2, b_parity="even",
            d_factor=2, delta_factor=2, alpha=2, rho=1, y_bound=(2, 1), c=2,
            assembly=ASSEMBLY_2B_A_R,
        ),
        # x^2 + y^2 + 2z^2, odd core = 3 (mod 8):
        #   F = R^2 + 2q x^2 + 2b xy + h y^2, R = 2tq x + bt y + core z
        CaseProfile(
            id="T2A", form=TernaryForm.D112, core_parity="odd", core_residues=(3,),
            q_residue=(1, 8), char_factor=2, t_den_factor=2, gamma=2, b_parity="even",
            d_factor=2, delta_factor=2, alpha=2, rho=1, y_bound=(2, 1), c=2,
            assembly=ASSEMBLY_R_A_B,
        ),
        # odd core = 7 (mod 8): as T2A but q = 3 (mod 8)
        CaseProfile(
            id="T2B", form=TernaryForm.D112, core_parity="odd", core_residues=(7,),
            q_residue=(3, 8), char_factor=2, t_den_factor=2, gamma=2, b_parity="even",
            d_factor=2, delta_factor=2, alpha=2, rho=1, y_bound=(2, 1), c=2,
            assembly=ASSEMBLY_R_A_B,
        ),
        # odd core = 1, 5 (mod 8):
        #   F = R^2 + q x^2 + 2b xy + h y^2, R = tq x + bt y + core z
        CaseProfile(
            id="T2C", form=TernaryForm.D112, core_parity="odd", core_residues=(1, 5),
            q_residue=(1, 8), char_factor=1, t_den_factor=1, gamma=2, b_parity="free",
            d_factor=1, delta_factor=1, alpha=1, rho=1, y_bound=(1, 1), c=2,
            assembly=ASSEMBLY_R_A_B,
        ),
        # x^2 + y^2 + 7z^2, core = 5 (mod 8), 7 not dividing the core:
        #   F = R^2 + q x^2 + b xy + h y^2, R = 2tq x + bt y + core z, h odd
        CaseProfile(
            id="T3A", form=TernaryForm.D117, core_parity="odd", core_residues=(5,),
            q_residue=(1, 28), char_factor=1, t_den_factor=4, gamma=7, b_parity="odd",
            d_factor=4, h_odd=True, delta_factor=4, alpha=2, rho=1, y_bound=(8, 7),
            c=7, assembly=ASSEMBLY_A_R_B,
        ),
        # x^2 + y^2 + 3z^2, core = 1 (mod 8), 3 not dividing the core.
        CaseProfile(
            id="T3B", form=TernaryForm.D113, core_parity="odd", core_residues=(1,),
            q_residue=(1, 12), char_factor=1, t_den_factor=4, gamma=3, b_parity="odd",
            d_factor=4, h_odd=True, delta_factor=4, alpha=2, rho=1, y_bound=(8, 3),
            c=3, assembly=ASSEMBLY_A_R_B,
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
