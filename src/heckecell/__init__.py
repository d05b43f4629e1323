"""Exact computation in the lowest two-sided ideal of an extended affine
Hecke algebra with unequal parameters: Kazhdan-Lusztig bases, the affine
cellular basis, and the type-A path model for its decomposition."""

from .laurent import LaurentPoly, xi
from .rootdata import WeightSystem
from .weyl import GroupElement, Weyl
from .hecke import Hecke, HeckeElt
from .lowestcell import BoundExceeded, CellFactorization, LowestCell, NotInLowestCell
from .cellular import CellularElt, CellularStructure, MonoidAlgebraElt

__all__ = [
    "LaurentPoly", "xi", "WeightSystem", "GroupElement", "Weyl",
    "Hecke", "HeckeElt", "BoundExceeded", "CellFactorization", "LowestCell",
    "NotInLowestCell",
    "CellularElt", "CellularStructure", "MonoidAlgebraElt",
]
