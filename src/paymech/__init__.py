"""Escrow payment schemes for extensive-form games.

Build a game tree with leaf emissions, pick the intended strategy
profile, and the package synthesizes per-symbol payments that make
deviating unprofitable, verifies candidate schemes, bounds the deposits
any scheme needs, and simulates the resulting escrow loop.
"""

from .bounds import (
    BoundReport,
    NormReport,
    constraint_utility_product,
    deposit_lower_bound,
    norms,
    spectral_norm,
)
from .case_studies import (
    COMMERCE_ALPHABET,
    CommerceInstance,
    CommerceParams,
    PvcInstance,
    PvcParams,
    build_commerce,
    build_pvc,
    pvc_alphabet,
)
from .errors import (
    BadParameters,
    BadProbabilitySum,
    DimensionMismatch,
    DuplicateNodeId,
    Error,
    Infeasible,
    MissingBranchChoice,
    NegativeComponent,
    NoConstraints,
    NotLeftInvertible,
    NumericalBreakdown,
    PatternViolated,
    PreconditionViolated,
    TargetNotImplementable,
    Unbounded,
    UnknownNodeId,
    ValidationError,
)
from .escrow import Episode, McResult, monte_carlo, run_episode, trial_seed
from .game_core import (
    GameTree,
    OrderedMap,
    StrategyProfile,
    backward_induction,
    branch,
    chance,
    check_profile,
    expected_utilities,
    honest_outcome,
    leaf,
)
from .info_structure import (
    InfoStructure,
    PaymentScheme,
    SchemeDiagnostics,
    implemented_utilities,
    left_inverse,
    scheme_diagnostics,
    scheme_for_target,
    zero_inflation_precondition,
)
from .jsonio import (
    GameDocument,
    dumps_canonical,
    game_to_doc,
    parse_game_doc,
    parse_scheme_doc,
    scheme_to_doc,
)
from .reductions import (
    AlaSpec,
    LpGadgetInstance,
    ala_scheme,
    blame_alphabet,
    lp_to_game,
    point_from_scheme,
    scheme_from_point,
)
from .security import (
    ConstraintRow,
    ConstraintSystem,
    SecurityParams,
    VerifyReport,
    build_constraints,
    inducible_leaves,
    verify,
)
from .simplex import LinearProgram, LpOutcome, solve
from .synthesis import (
    HONEST_EXPECTED,
    HONEST_PER_LEAF,
    OBJ_MINMAX,
    OBJ_WEIGHTED,
    SynthesisOptions,
    minmax_deposit,
    synthesize,
)

__version__ = "0.1.0"
