"""pathgap: spectral gaps of discrete Schrodinger operators on path graphs.

Builds tridiagonal Hamiltonians (path Laplacian plus a compactly supported
potential), computes their two lowest eigenvalues on Sturm counts,
evaluates analytic two-sided eigenvalue bounds,
and runs the volume sweeps behind the n^-3 gap-scaling law; each module's
``__all__`` lists the names exported here.
"""
from .operators import *
from .eigensolver import *
from .bounds import *
from .scaling import *

__version__ = "0.1.0"
