"""Exact-rational laboratory for parity-restricted betting strategies.

Everything computes in Fraction arithmetic; floats appear nowhere in the
laws. The modules split along the work: strategy tables and validation,
finite betting programs and staged mixtures, parity/block decompositions,
the at-most-three block enumeration and nested test, integer duels,
growth-exponent reports, and the prefix-description stage machine.
"""

from .errors import (
    BettingLabError,
    EngineBankruptError,
    PreconditionError,
    StructuralError,
    UnsupportedError,
)
from .strategy import (
    Diagnosis,
    Kind,
    Parity,
    Sided,
    StrategyTable,
    as_capital,
    combine,
    product,
    validate,
)
from .programs import (
    BetProgram,
    Component,
    FractionBet,
    Fsm,
    FsmState,
    IntegerBet,
    ScaleBet,
    StageApprox,
    at_stage,
    constant_program,
    follow_program,
)
from .decompose import (
    BlockSpec,
    block_decompose,
    min_block_martingale,
    parity_factorize,
    unique_first_bit_martingale,
)
from .blocktest import (
    BlockReport,
    GrowthLine,
    LevelReport,
    PackingCertificate,
    ParityTestResult,
    TestArray,
    build_parity_test,
    check_block34,
    enumerate_block,
    max_fanout,
    mixture,
    packing_certificate,
    verify_block_inequality,
)
from .diagonal import (
    BitRecord,
    Checkpoint,
    ConeCertificate,
    DiagTrace,
    IntStrategy,
    diagonalize,
    find_settling_extension,
    replay_trace,
    unit_bet_alternating,
    unit_bet_on_one,
    verify_cone_constancy,
)
from .dimension import (
    DimReport,
    ExponentSample,
    LevelVerdict,
    compare_scaled_weight,
    empirical_dim_bound,
    log2_bracket,
    strategies_from_test,
    validate_s_test,
)
from .builder import (
    BuilderState,
    GrowthVerdict,
    RequestLedger,
    StageEvent,
    StageParams,
    capital_threshold,
    check_growth_bound,
    floor,
    greedy_leftmost_extension,
    params,
    run_stage_machine,
    stage_parameters,
)
from .serialize import (
    WireError,
    dumps,
    from_jsonable,
    load_json,
    parse_frac,
    parse_trace,
    to_jsonable,
    trace_lines,
)

__version__ = "0.1.0"

# every public name the imports above bind, less the submodules they bind
# as a side effect (a module has no __module__)
__all__ = [
    name
    for name, obj in globals().items()
    if not name.startswith("_") and getattr(obj, "__module__", "").startswith(__name__)
] + ["__version__"]
