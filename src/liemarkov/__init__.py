"""Semigroup-derived Lie-Markov models.

Enumerate finite semigroups up to isomorphism, derive the continuous-time
Markov model each one induces through its regular representation,
classify the resulting models exactly (dimension, reducibility,
absorbing states, symmetry group, Lie/matrix-algebra closure, known-model
identity), and verify multiplicative closure numerically.
"""

from .cayley import (
    CayleyTable,
    anti_iso_census,
    apply_perm,
    canonical_form,
    enumerate_semigroups,
    format_tables,
    is_associative,
    make_table,
    parse_tables,
    reverse,
)
from .catalog import (
    CatalogEntry,
    ModelReport,
    PipelineInvariantError,
    build_registry,
    commutator_table,
    known_subspaces,
    model_id,
    render,
    run_pipeline,
)
from .closure import (
    ClosureReport,
    LogmConvergenceError,
    check_algebra_closed,
    check_lie_closed,
    commutator,
    expm,
    logm,
    verify_multiplicative_closure,
)
from .constructors import (
    FixtureModel,
    GroupSpec,
    NotAGroupError,
    abelian_rate_pattern,
    cyclic_group,
    equivariant_model,
    fixture,
    group_based_model,
    group_spec,
    klein_group,
    symmetric_group_3,
)
from .modelgen import (
    ModelSubspace,
    absorbing_states,
    canonical_subspace,
    contains,
    generic_support,
    is_reducible,
    model_orbit,
    rate_basis,
    subspace_from_generators,
)
from .representation import RegularRep, regular_rep, rep_is_injective
from .symmetry import (
    SymmetryGroup,
    cycle_string,
    parse_perm,
    perm_matrix,
    symmetry_group,
    variant_count,
)

__version__ = "0.1.0"
