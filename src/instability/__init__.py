"""Resource theory of instability.

Destruction channels (faithful idempotent channels) as block-structured
conditional expectations, the instability monotones they induce, and the
one-shot distillation/dilution tasks, all cross-checked against
independent brute-force oracles at desk scale.
"""

from .channels import (
    Block,
    DestructionChannel,
    cond_depolarizer,
    cond_replacer,
    dephaser,
    depolarizer,
    enumerate_free_grid,
    free_state,
    maximally_entangled_state,
    plus_state,
    random_free_unitary,
    replacer,
    standard_channel,
    system,
    tensor_channels,
    tpce,
)
from .divergences import (
    RenyiParams,
    d_alpha_z,
    d_hypothesis,
    d_max,
    d_min,
    in_dpi_region,
    neyman_pearson,
    umegaki,
)
from .errors import (
    BudgetError,
    InstabilityError,
    ParseError,
    SolverError,
    ValidationError,
)
from .linalg import (
    eigh,
    mat_pow,
    partial_trace,
    schatten_norm,
    tensor_product,
    trace_distance,
)
from .optimize import (
    OptimizerResult,
    TraceFunctionalSpec,
    d_alpha_z_free,
    d_min_free,
    grid_oracle,
    m_lambda,
    optimize_trace_functional,
    petz_free,
    umegaki_free,
    z1_closed_form,
)
from .programs import dmax_smoothed_free, ht_free, restricted_ht
from .sdp import HermitianProgram, SdpProblem, SdpSolution, solve
from .tasks import (
    CurrencyState,
    TaskReport,
    battery_yield,
    catalytic_yield0,
    compose_effect,
    covariance_check,
    currency,
    lift_effect,
    one_shot_cost_eps,
    one_shot_cost_exact,
    one_shot_yield,
    regularize_sweep,
)

__version__ = "0.1.0"
