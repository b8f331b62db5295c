"""Workbench for finite residuated lattices.

Construct algebras as operation tables (ordinal sums, partial gluings,
generalized rotations), validate axioms, evaluate identities, compute the
filter/congruence correspondence, enumerate residuated chains, and decide
or refute amalgamation questions for V-formations of finite chains by
obstruction certificates and bounded exhaustive search.
"""

from .algebra import (
    CHAIN,
    EMBEDDING,
    HOM,
    PARTIAL_IRL_FLAGS,
    RL_FLAGS,
    VALIDATE_FLAGS,
    BudgetExceededError,
    CongruenceFilter,
    FiniteRL,
    FormatError,
    Morphism,
    NotResiduatedError,
    PreconditionError,
    ReslatError,
    UnsupportedError,
    UnsupportedSymbolError,
    ValidationReport,
    congruence_filters,
    filter_to_congruence,
    make_algebra,
    quotient,
    relabel,
    residuals_from_product,
    tables_equal,
    validate,
    validate_morphism,
    with_zero,
)
from .amalgamation import (
    ObstructionWitness,
    SearchReport,
    VFormation,
    bounded_amalgam_search,
    bounded_one_amalgam_search,
    check_obstruction,
    check_vformation,
    document_to_vformation,
    find_embeddings,
    find_obstruction,
    injectivity_reduction,
    load_vformation,
    make_vformation,
    pointed_vformation,
    rotated_vformation,
    vformation_to_document,
    vs_formation,
)
from .completion import (
    Budget,
    ChainFlags,
    CompletionProblem,
    count_chains,
    enumerate_chains,
    iter_completions,
)
from .constructions import (
    LowerCompatibleTriple,
    Nucleus,
    builtin,
    constant_one_nucleus,
    generalized_rotation,
    godel,
    identity_nucleus,
    identity_triple,
    lukasiewicz,
    nucleus_image,
    ordinal_sum,
    partial_gluing,
    trivial,
    two,
    validate_nucleus,
    validate_triple,
    vs_a,
    vs_b,
    vs_c,
    vs_k_triple,
)
from .documents import (
    algebra_to_document,
    canonical_tables_json,
    document_to_algebra,
    dumps_canonical,
)
from .identities import (
    Identity,
    IdentityResult,
    check_identity,
    format_identity,
    parse_identity,
)

__version__ = "0.1.0"
