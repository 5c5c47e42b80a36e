"""Exact local reciprocity maps for tame abelian Laurent series extensions."""

from .brauer import (Character, CrossedProduct, character_group,
                     cyclic_algebra_check, frobenius_exponent,
                     hasse_invariant)
from .extension import GaloisElement, TameAbelianExtension
from .ffield import FieldElement, FieldTower
from .reciprocity import (BaseFieldClass, NormGroupPresentation,
                          class_of_series, congruence_inputs, congruence_rhs,
                          is_norm, norm, norm_group, reciprocity_map,
                          reciprocity_of_series, reciprocity_search)
from .series import LaurentSeries

__all__ = [
    "BaseFieldClass", "Character", "CrossedProduct", "FieldElement",
    "FieldTower", "GaloisElement", "LaurentSeries", "NormGroupPresentation",
    "TameAbelianExtension", "character_group", "class_of_series",
    "congruence_inputs", "congruence_rhs", "cyclic_algebra_check",
    "frobenius_exponent", "hasse_invariant", "is_norm", "norm", "norm_group",
    "reciprocity_map", "reciprocity_of_series", "reciprocity_search",
]

__version__ = "0.1.0"
