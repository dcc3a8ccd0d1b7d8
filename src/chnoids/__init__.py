"""Exact Higgs-bundle data for n-noids in the complex hyperbolic plane.

Subpackages: exact Gaussian-rational arithmetic (exactnum), the punctured
sphere (sphere), the explicit Higgs field and its residues (nnoid),
parabolic stability (stability), CH^2 geometry and isometry
classification (ch2), and the cusp-strip finite-difference harness (cusp).
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """Input outside a command's domain: ``chnoids`` exits 2 on it and its subclasses."""
