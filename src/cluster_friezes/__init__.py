"""Exact cluster mutation, tropical points, frieze patterns and the
finite-type duality pairing."""

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    ExponentOverflow,
    InternalDisagreement,
    NegativeExponent,
    NotAdmissible,
    NotDivisible,
    NotFiniteType,
    NotFound,
    SubtractionFreeViolation,
    TropOverflow,
    ZeroDenominator,
)
from .laurent import (
    TROP_LIMIT,
    IntLaurentPoly,
    RationalFunction,
    check_trop,
    poly_gcd,
)
from .mutation import (
    SEED_BUDGET,
    GCFData,
    Seed,
    canonical_address,
    enumerate_exchange_graph,
    extract_gcf,
    is_global_Y_monomial,
    mutate_A_seed,
    mutate_Y_seed,
    seed_at,
    separation_check,
)
from .tropical import (
    TropPoint,
    beta_map,
    check_admissible_A,
    check_admissible_Y,
    d_compat_degree,
    d_trop_point,
    g_vector_of_cluster_monomial,
    p_map,
    trop_mutate_A,
    trop_mutate_Y,
)
from .friezes import (
    CartanMatrix,
    FriezeFunction,
    PLMap,
    belts,
    ensemble_map_friezes,
    f_from_admissible_y,
    f_from_trop_point,
    generic_A_frieze,
    generic_Y_frieze,
    hammock,
    k_from_admissible_x,
    k_from_trop_point,
    shift,
    shift_trop,
    slice_step,
)
from .finite import (
    Classification,
    RootSystemData,
    classify,
    coxeter_data,
    d_duality_check,
    decompose_hammocks,
    fim_recursion,
    finite_context,
    mono_from_gvector_A,
    mono_from_gvector_Y,
    named_cartan,
    pairing,
    verify_periodicity,
    x_from_rho,
    y_from_delta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
