"""teamlog: model checking, satisfiability and structural analysis for
propositional team logics (PDL, PINC, PIND) under strict and lax
split semantics."""

__version__ = "0.1.0"

from .errors import (
    ArityMismatchError,
    EngineNotApplicableError,
    EnumerationCapError,
    FormulaSyntaxError,
    MixedAtomsError,
    ResourceBoundError,
    TeamFormatError,
    TeamlogError,
    UnknownVariableError,
)
from .formulas import (
    And,
    Bot,
    Dep,
    Formula,
    Inc,
    Indep,
    LogicKind,
    Not,
    Or,
    Top,
    VarRef,
    formula_depth,
    formula_size,
    logic_kind,
    parse_formula,
    render_formula,
    split_count,
    subformulas,
    variables,
)
from .modelcheck import SatSetTable, build_sat_table, mc, mc_bottom_up
from .reductions import (
    RandomFormulaConfig,
    SetSplittingInstance,
    dep_to_indep,
    random_formula,
    setsplit_brute,
    setsplit_to_pinc_mc,
)
from .sat import (
    SatResult,
    SatStatus,
    sat_brute,
    sat_fixpoint,
    sat_singleton,
    sat_split_free,
)
from .semantics import SemanticsMode, evaluate
from .structure import (
    GaifmanGraph,
    ParameterReport,
    TreeDecomposition,
    build_gaifman,
    parameters,
    to_dot,
    treewidth_exact,
    treewidth_upper,
    validate_decomposition,
)
from .teams import Team, parse_team, render_team
