"""Transmission channel analysis for dynamic linear models.

Decomposes the impulse responses of SVAR/VARMA-class models into the
effects flowing through user-specified transmission channels, stated as
Boolean conditions over the variables of the model's equilibrium DAG.
"""

from .condition import (
    EffectTable,
    TransmissionCondition,
    any_horizon,
    effect_from_irfs,
    parse_condition,
    transmission_effect,
)
from .graph import Path, enumerate_paths
from .inference import (
    BootstrapSpec,
    EffectBands,
    InstrumentSpec,
    VarSpec,
    bootstrap_effects,
    point_effects,
)
from .linalg import ql_decompose, solve_unit_lower
from .model import (
    LpEstimates,
    ReducedVar,
    StructuralShockColumn,
    VarmaModel,
    estimate_lp_irfs,
    estimate_var_ols,
    identify_internal_instrument,
    simulate_var,
)
from .system import (
    SystemsForm,
    TransmissionOrdering,
    cholesky_irfs,
    irf_total,
    make_systems_form,
    reconstruct_from_single_shock,
)

__version__ = "0.1.0"
