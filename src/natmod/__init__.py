"""Workbench for natural models of dependent type theory over finite categories.

Everything is verified by enumeration within explicit size bounds: the
equational theory of models, representability of the classifier, the
polynomial calculus in finite sets, the free constructions and their
universal properties.
"""

from .fincat import (
    BoundedCategory,
    FinCatPresentation,
    FinFunctor,
    FinSliceOpposite,
    check_category,
    product,
    pullback,
    truncate,
)
from .presheaf import (
    NatTrans,
    Presheaf,
    check_pullback_square,
    elements_cat,
    is_representable,
    pullback_presheaves,
    represents,
    sum_presheaves,
    yoneda,
)
from .natmodel import (
    ExtensionData,
    NaturalModel,
    PiStructure,
    SigmaStructure,
    UnitStructure,
    canonical_pullback,
    check_eat,
    check_pi,
    check_sigma,
    check_unit,
    extension_square_oracle,
    induced_sub,
    swap_iso,
)
from .morphism import (
    MorphismPins,
    NMorphism,
    check_morphism,
    check_sigma_morphism,
    classified_morphisms,
    compose_morphisms,
    count_morphisms,
    identity_morphism,
)
from .polyset import (
    Adjustment,
    FinMap,
    PolyMorphism,
    Polynomial,
    beck_chevalley_witness,
    check_pseudomonad_data,
    compose,
    distributivity_witness,
    extend,
    unique_adjustment,
)
from .freemodel import (
    SigmaExtModel,
    TermModel,
    TermTree,
    TypeTree,
    extend_by_sigma,
    extend_by_term,
    extend_by_type,
    extend_by_unit,
    extend_term_universal,
    initial_morphism,
    poly_composite_models,
    sigma_universal,
    substitution_morphism,
    term_model,
    tree_summation,
    type_universal,
    unit_universal,
)

__version__ = "0.1.0"
