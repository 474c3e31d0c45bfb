"""Weighted-moment (grand Lebesgue) norms over restricted exponent sets.

The core objects are a random-variable model (its map p -> |f|_p), a
generating function psi, and an exponent domain: all of [1, inf), a
Borel subset containing 1, or a discrete grid.  On top of those the
package computes the norm sup_p |f|_p / psi(p), the equivalence
constants Z / W / W^ that sandwich restricted and discrete norms against
the full one, Legendre-type tail envelopes exp(-h(x/N)), and the
convolution algebra inequalities on finite groups.
"""

from .errors import (
    DegenerateModelError,
    DivergentMomentError,
    DomainError,
    EmptyBatchError,
    GlsError,
    GroupAxiomError,
    NoFeasibleKError,
    NonMonotoneError,
    SizeMismatchError,
    SpecParseError,
    TruncationError,
    UnsupportedBackendError,
)
from .generating import (
    GeneratingFunction,
    PowerSlowVaryParams,
    make_power_slowvary,
    natural_psi,
    psi_eval,
    raw_power_slowvary,
    sqrt_dip_psi,
)
from .grids import (
    EquivalenceConstant,
    GridSequence,
    RestrictedSet,
    geometric_grid,
    integer_grid,
    w_constant,
    w_hat_constant,
    z_constant,
)
from .groups import (
    AlgebraReport,
    FiniteGroup,
    GroupFunctionModel,
    YoungReport,
    YoungTriple,
    algebra_check,
    convolve,
    cyclic_group,
    dihedral_group,
    group_lp_norm,
    make_group,
    product_group,
    symmetric_group,
    unit_function,
    young_check,
)
from .models import (
    ClosedFormModel,
    EmpiricalModel,
    MomentInstabilityWarning,
    PowerMeanModel,
    RandomVariableModel,
    SampleBatch,
    constant_model,
    empirical_survival,
    exponential_model,
    gaussian_model,
    rademacher_model,
    sample,
    uniform01_model,
)
from .norms import (
    NormResult,
    SandwichReport,
    default_p_max,
    discrete_norm,
    gls_norm,
    sandwich_check_discrete,
    sandwich_check_restricted,
)
from .specs import (
    grid_from_spec,
    load_group_function,
    model_from_spec,
    psi_from_spec,
    set_from_spec,
)
from .suites import (
    SUITE_NAMES,
    SuiteResult,
    algebra_suite,
    run_suite,
    sandwich_suite,
    set_fixtures,
    tails_suite,
    young_suite,
)
from .tails import (
    HTransformResult,
    MembershipEstimate,
    TailEnvelope,
    TailReport,
    h_transform,
    make_tail_envelope,
    membership_K_estimate,
    tail_check,
    tail_envelope,
)

__version__ = "0.1.0"
