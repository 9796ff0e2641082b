"""Distance-based belief revision workbench.

Pseudo-distances over finite universes, the induced minimization operator,
distance-based revision with postulate checkers, a realizability solver for
finite operator tables, and machine-checked cyclic counterexample gadgets.
"""

from .costs import (
    INF,
    OrderMode,
    PropertyReport,
    PseudoDistance,
    check_hir,
    check_property,
    format_cost,
    parse_cost,
)
from .distops import (
    LoopVerdict,
    OperatorTable,
    apply,
    check_inclusion,
    check_loop,
    family_closure,
    find_loop_violation,
    validate_family,
)
from .errors import DistrevError
from .logic import (
    CLASSICAL,
    Matrix,
    Valuation,
    canonical_dnf,
    definable_model_sets,
    enumerate_valuations,
    eval_formula,
    formula_to_text,
    hamming_diff,
    models,
    parse_formula,
    satisfies,
)
from .realizability import (
    Verdict,
    brute_force_realizable,
    compile_constraints,
    solve,
    solve_table,
    verify_witness,
    witness_distance,
)
from .revision import (
    RevisionOperator,
    Theory,
    check_agm,
    check_disjunction_iteration,
    check_dp_cp,
    check_star_loop,
    hamming_pseudo_distance,
    per_source_order_operator,
    revise,
)
from .wheel import (
    Gadget,
    build_hamming_wheel,
    build_wheel_gadget,
    verify_hamming_claims,
    verify_wheel_claims,
)

__version__ = "0.1.0"
