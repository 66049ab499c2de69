"""Exact simultaneous linear forms in odd zeta values, their saddle-point
asymptotics, and executable linear-independence criterion machinery."""

__version__ = "0.1.0"

from .linear_forms import (          # noqa: F401
    FormSpec,
    Summand,
    PartialFractionTable,
    ZetaLinearForm,
    PLAIN,
    DOUBLE_DERIVED,
    build_summand,
    partial_fractions,
    table_for,
    zeta_form_plain,
    zeta_form_derived,
    denominator_check,
    smallest_clearing_exponent,
    coeff_growth,
)
from .highprec import (              # noqa: F401
    PrecisionContext,
    zeta_value,
    eval_S_direct,
    eval_S_form,
    form_residual,
    measure_rates,
    RateReport,
)
from .saddle import (                # noqa: F401
    SaddleData,
    find_mu1,
    find_tau0,
    compute_constants,
    check_assumptions,
    r_of_a,
    nu_of,
)
from .criterion import (             # noqa: F401
    EpsTable,
    AbstractInstance,
    phi_build,
    choose_eps1,
    permutation_product_check,
    coefficient_bound_check,
    rank_lower_bound,
    zeta_rank_bound,
    oscillation_subsequence,
)
from .symbolic import (              # noqa: F401
    SymbolField,
    rational_rank,
    scalar_rank,
    generate_test_vector,
    gutnik_log2_columns,
    gutnik_zeta34_columns,
    polylog_pair_columns,
    zeta_pair_columns,
)
from .diophantine import (           # noqa: F401
    ProjectiveInstance,
    projective_distance,
    projective_distance_sweep,
    siegel_verify,
    convex_body_emptiness,
    type2_box_check,
    sqrt2_convergents,
    golden_convergents,
)
