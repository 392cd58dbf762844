"""Homological product CSS codes for qudits of odd prime dimension.

The pipeline: two-sector chain complexes with involution over GF(D)
(complexes), their tensor products (product), the CSS codes they induce
and exact distance search (css), leading-coordinate quotients
(reduction), exact rank-enumeration counts with brute-force oracles
(counting), and seeded Monte Carlo harnesses with the uniform low
weight condition (experiments).  All linear algebra is exact (gf).

The package exports exactly the names of each module's ``__all__``,
which declares them once.
"""

__version__ = "0.1.0"

from .gf import *
from .complexes import *
from .product import *
from .css import *
from .reduction import *
from .counting import *
from .experiments import *
