"""Exact engine for iterated strategy elimination and epistemic game analysis."""

from .elimination import (
    GLOBAL,
    LOCAL,
    NotionProfile,
    operator,
    outcome,
    t_global,
    u_local,
)
from .epistemic import (
    EpistemicModel,
    PossibilityCorrespondence,
    StateSpace,
    box,
    box_chain,
    common_box,
    iterated_elimination_model,
    parse_model,
    rat_event,
    render_model,
    restriction_of,
    singleton_model,
    standard_model,
    two_block_model,
    validation_report,
)
from .errors import (
    BudgetExceeded,
    EmptyOpponentSet,
    EmptyStateSpace,
    EmptySupport,
    EngineError,
    HypothesisNotMet,
    InvalidModel,
    NonContractingStep,
    NonMonotonicProfile,
    ParseError,
    PremiseViolated,
    UnsupportedNotion,
    ValidationError,
)
from .games import (
    CorrelatedBelief,
    Game,
    JointStrategy,
    MixedStrategy,
    Restriction,
    expected_payoff,
    game_from_payoffs,
    parse_game,
    render_game,
    render_restriction,
)
from .generators import GeneratorConfig, generate_game, generate_model
from .lattice import (
    EliminationRecord,
    EliminationTrace,
    InclusionLemmaReport,
    MonotonicityReport,
    RestrictionOperator,
    check_inclusion_lemma,
    enumerate_restrictions,
    iterate_to_outcome,
    probe_monotonicity,
)
from .optimality import (
    BestResponseVerdict,
    DominanceVerdict,
    Notion,
    holds,
    solve_br_lp,
    solve_dominance_lp,
)
from .simplex import LPSolution, Status, solve
from .verify import (
    VerificationReport,
    replay,
    search_thm2,
    verify_cor1,
    verify_cor2,
    verify_monotonicity,
    verify_thm1i,
    verify_thm1ii,
    verify_thm1iii,
    verify_thm2,
)

__all__ = [name for name in dir() if not name.startswith("_")]
