"""Constructive representation of integers by four ternary quadratic forms.

The package decides representability by x^2+2y^2+2z^2 and x^2+y^2+2z^2
exactly, constructs representations for the covered congruence classes of
x^2+y^2+3z^2 and x^2+y^2+7z^2, and ships an independent brute-force oracle
for auditing every claim.

The package exports the names in each module's __all__, and a new public
name goes only in its module's list.
"""

from .arith import *
from .cases import *
from .descent import *
from .errors import *
from .factor import *
from .forms import *
from .oracle import *
from .lattice import *
from .pipeline import *

__version__ = "0.1.0"

__all__ = ["__version__", *arith.__all__, *cases.__all__, *descent.__all__,
           *errors.__all__, *factor.__all__, *forms.__all__, *oracle.__all__,
           *lattice.__all__, *pipeline.__all__]
