"""fdkit: functional dependencies over relational schemas.

Closures, implication, covers, keys, BCNF/3NF checking, decomposition and
synthesis, backed by a finite relation-instance laboratory that serves as
an independent brute-force oracle.
"""

from . import covers, design, dsl, errors, fds, instances, reductions
from .errors import *
from .fds import *
from .covers import *
from .instances import *
from .design import *
from .reductions import *
from .dsl import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += fds.__all__
__all__ += covers.__all__
__all__ += instances.__all__
__all__ += design.__all__
__all__ += reductions.__all__
__all__ += dsl.__all__
