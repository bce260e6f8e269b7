"""Argument-profile analysis for a small moded logic language.

The package parses flat moded logic programs, computes per-argument
dataflow profiles by a bottom-up fixpoint analysis, orders arguments by a
total order on profiles, rewrites programs into that argument normal form,
detects profile-equivalent predicates, and includes a reference
interpreter for validating that rewrites preserve answers.
"""

from .analysis import (
    AnalysisTrace,
    Environment,
    TraceEntry,
    analyze_atom,
    analyze_predicate,
    argument_profiles,
    initial_environment,
    project,
    round_counts,
    run_analysis,
    transitive_closure,
)
from .domain import (
    ASSIGN,
    PSI_BOT,
    TEST,
    ArgumentProfile,
    AssignOp,
    ConstructOp,
    DeconstructOp,
    DomainError,
    InteractionSet,
    OSet,
    Operation,
    PsiBotOp,
    PsiOp,
    TestOp,
    WellDefinednessError,
    bottom,
    canon_op,
    canon_profile,
    canon_profile_seq,
    join_sets,
    leq_sets,
    make_interaction_set,
    make_oset,
    make_profile,
    render_interaction_set,
    strip_points,
)
from .modecheck import (
    ValidationReport,
    validate_modes,
    validate_program,
)
from .normalize import (
    Distinct,
    Equivalent,
    NormalizationPlan,
    PlanError,
    compare,
    ordered_profile_of,
    plan,
    rewrite,
)
from .ordering import (
    OrderedProfile,
    compare_profiles,
    features,
    oprof,
)
from .parse import (
    LexError,
    ParseError,
    ProgramError,
    Query,
    SourceError,
    parse_program,
    parse_query,
)
from .syntax import (
    Assign,
    Atom,
    Call,
    CallError,
    Clause,
    Construct,
    Deconstruct,
    FunctorTerm,
    Mode,
    Predicate,
    Program,
    Term,
    Test,
    Var,
    format_atom,
    format_ground,
    format_program,
)

__version__ = "0.1.0"

# The interpreter is imported on first use, so the commands that do not run
# queries do not load it.
_INTERP_NAMES = {
    "RuntimeModeError",
    "SolveError",
    "StepLimitExceeded",
    "solve",
}


def __getattr__(name: str):
    if name in _INTERP_NAMES:
        from . import interp

        return getattr(interp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
