"""Desk-scale KAM normal-form engine for the d-dimensional cubic NLS.

Sparse Hamiltonian algebra over a truncated mode lattice with weighted
analytic norms, strong-Diophantine frequency sampling, homological
equation solving, the quantitative iteration schedule, and brute-force
oracles for every supporting inequality.
"""

from .errors import (
    CapacityError,
    DimensionMismatchError,
    DivergenceRiskError,
    SmallDivisorError,
    ValidationError,
)
from .lattice import weighted_gap
from .hamiltonian import (
    HamParams,
    Hamiltonian,
    class_split,
    evaluate,
    lie_transform,
    linear_combine,
    multiply,
    norm,
    partial,
    poisson_bracket,
    prune,
    second_partial,
    vector_field,
    vf_sup_norm,
)
from .diophantine import (
    check_frequency,
    frequency_dumps,
    frequency_loads,
    resonance_measure,
    sample_frequency,
    sample_strong_frequency,
)
from .homological import (
    RHO0,
    HomologicalSolution,
    NormalForm,
    divisor,
    homological_residual,
    solve_homological,
)
from .nls import NlsConfig, build_cubic_nls, build_normal_form
from .driver import (
    KamConfig,
    KamState,
    ScheduleParams,
    StepReport,
    final_remainder_check,
    initial_state,
    kam_step,
    run,
    schedule,
    tl_defect,
)
from .verification import (
    LemmaCase,
    random_hamiltonian,
    run_suite,
    verify_norm_lemma,
    verify_scalar_lemma,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
