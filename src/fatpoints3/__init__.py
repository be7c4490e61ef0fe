"""fatpoints3: linear systems of surfaces in P^3 with fat base points.

Inequality classifiers (non-speciality, base-point-freeness, very
ampleness), machine-checkable reduction certificates, and an exact
finite-field interpolation oracle that cross-checks both.
"""

from . import criteria, divclass, oracle
from .divclass import *  # noqa: F401,F403
from .criteria import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's own export list, in this order: class models and lattice
# arithmetic, checkers and certificates, the finite-field oracle
__all__ = divclass.__all__ + criteria.__all__ + oracle.__all__ + ["__version__"]
