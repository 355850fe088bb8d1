"""collatz-lab: exact-arithmetic verification toolkit for a mod-4 analysis
of the Collatz map.

The library splits into ground-truth dynamics (``core``), the mod-4 class
machinery (``residues``), the beta-chain solver (``beta_chain``), block
decomposition (``blocks``), cycle search (``cycles``), vertex-count
coordinates (``polyline``), parallel sweeps (``sweeps``) and their reports
(``report``).  Everything symbolic is checked against brute-force iteration;
sweeps return reports rather than raising on counterexamples.
"""

from .beta_chain import (
    BetaChainSolution,
    solve_beta_chain,
    solve_beta_chain_paper,
    v2,
    verify_beta_chain,
)
from .blocks import (
    Block,
    BlockSequence,
    closed_form_k,
    decompose,
    decompose_until_trivial,
    make_block,
    verify_recurrence,
)
from .core import (
    DEFAULT_STEP_LIMIT,
    BackwardTree,
    RecordTable,
    Trajectory,
    backward_tree,
    delay,
    delay_sieve,
    glide,
    preimages_c,
    records_sweep,
    step_c,
    step_t,
    trajectory,
)
from .cycles import (
    CycleCandidate,
    CycleSolution,
    cycle_equation_general,
    cycle_k_n1,
    search_cycles,
    search_cycles_n1,
)
from .errors import (
    CollatzLabError,
    DomainError,
    IdentityViolation,
    InvalidPolyline,
    LimitExceeded,
    PatternMismatch,
    SweepWorkerError,
)
from .polyline import (
    Polyline,
    class_from_polyline,
    cycle_residual,
    from_polyline,
    shape_residual,
    step_T_polyline,
    to_polyline,
)
from .report import Counterexample, VerificationReport, export_report
from .residues import (
    ClassifiedInt,
    ResidueClass,
    class_sequence,
    classify,
    declassify,
    transition_graph,
    transition_symbolic,
)
from .sweeps import (
    resolve_workers,
    verify_beta_chains,
    verify_blocks,
    verify_convergence,
    verify_polylines,
    verify_transitions,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_STEP_LIMIT",
    "BackwardTree",
    "BetaChainSolution",
    "Block",
    "BlockSequence",
    "ClassifiedInt",
    "CollatzLabError",
    "Counterexample",
    "CycleCandidate",
    "CycleSolution",
    "DomainError",
    "IdentityViolation",
    "InvalidPolyline",
    "LimitExceeded",
    "PatternMismatch",
    "Polyline",
    "RecordTable",
    "ResidueClass",
    "SweepWorkerError",
    "Trajectory",
    "VerificationReport",
    "backward_tree",
    "class_from_polyline",
    "class_sequence",
    "classify",
    "closed_form_k",
    "cycle_equation_general",
    "cycle_k_n1",
    "cycle_residual",
    "declassify",
    "decompose",
    "decompose_until_trivial",
    "delay",
    "delay_sieve",
    "export_report",
    "from_polyline",
    "glide",
    "make_block",
    "preimages_c",
    "records_sweep",
    "resolve_workers",
    "search_cycles",
    "search_cycles_n1",
    "shape_residual",
    "solve_beta_chain",
    "solve_beta_chain_paper",
    "step_T_polyline",
    "step_c",
    "step_t",
    "to_polyline",
    "trajectory",
    "transition_graph",
    "transition_symbolic",
    "v2",
    "verify_beta_chain",
    "verify_beta_chains",
    "verify_blocks",
    "verify_convergence",
    "verify_polylines",
    "verify_recurrence",
    "verify_transitions",
]
