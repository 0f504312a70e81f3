"""Cubical omega-categories with connections, at desk scale.

The package is organised around a small abstract interface for
dimension-bounded cubical omega-categories (`cubeforge.core.CubModel`)
and its executable instances, the cubical and globular nerves of
augmented directed complexes (`cubeforge.nerve`).  On top of that sit
the folding operations, thin cells, the three invertibility notions
(`cubeforge.invert`), the symmetric-group machinery on words and
permutations (`cubeforge.perms`), and lax/oplax/pseudo transfors
(`cubeforge.transfor`).

Everything is exact integer combinatorics; there is no floating point
anywhere.  All infinite objects are confronted only through explicit,
bounded enumeration.
"""

__version__ = "0.1.0"

from .indices import DomainError, lower, lower2, mixed, raise2, raise_

__all__ = [
    "__version__",
    "DomainError",
    "raise_",
    "lower",
    "lower2",
    "raise2",
    "mixed",
]
