"""Standard monomial combinatorics on Schubert and Richardson varieties.

The package enumerates admissible pairs and standard monomials for weights
of classical type, checks every count and weight multiset against Demazure
and Weyl-dimension oracles, and realizes the type-A story concretely in
Plücker coordinates with exact straightening relations and randomized
finite-field rank verification.
"""

from .admissible import AdmissiblePair, WeightPoset
from .oracle import demazure_apply, demazure_character, mass, weyl_dim
from .pluecker import (
    MERSENNE_PRIME,
    StraighteningRelation,
    flag_monomial_evaluate,
    index_leq,
    sample_flag_point,
    schubert_point_sample,
    standard_monomials_grassmann,
    straighten,
    verify_hodge_i,
    verify_hodge_iii,
)
from .rootdata import (
    Root,
    RootSystem,
    Weight,
    build_root_system,
    is_classical_type,
    pairing,
    parse_cartan_type,
    rho,
)
from .schubert import DivisorStep, schubert_divisors
from .smt import (
    RichardsonPair,
    StandardContext,
    StandardMonomial,
    make_union,
    richardson_contains,
)
from .weyl import (
    ParabolicQuotient,
    WeylElement,
    WeylGroup,
    format_word,
    stabilizer_subset,
)

__version__ = "0.1.0"
