"""collatz-lab: exact-arithmetic verification toolkit for a mod-4 analysis
of the Collatz map.

The library splits into ground-truth dynamics (``core``), the mod-4 class
machinery (``residues``), the beta-chain solver (``beta_chain``), block
decomposition (``blocks``), cycle search (``cycles``), vertex-count
coordinates (``polyline``), parallel sweeps (``sweeps``) and their reports
(``report``).  Everything symbolic is checked against brute-force iteration;
sweeps return reports rather than raising on counterexamples.

The exported names load lazily (PEP 562): ``import collatz_lab`` imports
no submodule, and the first use of a name imports the submodule that
defines it.  So a program, or a ``collatz-lab`` command, pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_SOURCES = {
    "DEFAULT_STEP_LIMIT": "core",
    "BackwardTree": "core",
    "BetaChainSolution": "beta_chain",
    "Block": "blocks",
    "BlockSequence": "blocks",
    "ClassifiedInt": "residues",
    "CollatzLabError": "errors",
    "Counterexample": "report",
    "CycleCandidate": "cycles",
    "CycleSolution": "cycles",
    "DomainError": "errors",
    "IdentityViolation": "errors",
    "InvalidPolyline": "errors",
    "LimitExceeded": "errors",
    "PatternMismatch": "errors",
    "Polyline": "polyline",
    "RecordTable": "core",
    "ResidueClass": "residues",
    "SweepWorkerError": "errors",
    "Trajectory": "core",
    "VerificationReport": "report",
    "backward_tree": "core",
    "class_from_polyline": "polyline",
    "class_sequence": "residues",
    "classify": "residues",
    "cycle_equation_general": "cycles",
    "cycle_residual": "polyline",
    "declassify": "residues",
    "decompose": "blocks",
    "decompose_until_trivial": "blocks",
    "delay": "core",
    "delay_sieve": "core",
    "export_report": "report",
    "from_polyline": "polyline",
    "glide": "core",
    "make_block": "blocks",
    "preimages_c": "core",
    "records_sweep": "core",
    "resolve_workers": "sweeps",
    "search_cycles": "cycles",
    "search_cycles_n1": "cycles",
    "shape_residual": "polyline",
    "solve_beta_chain": "beta_chain",
    "solve_beta_chain_paper": "beta_chain",
    "step_T_polyline": "polyline",
    "step_c": "core",
    "step_t": "core",
    "to_polyline": "polyline",
    "trajectory": "core",
    "transition_graph": "residues",
    "transition_symbolic": "residues",
    "v2": "beta_chain",
    "verify_beta_chains": "sweeps",
    "verify_blocks": "sweeps",
    "verify_convergence": "sweeps",
    "verify_polylines": "sweeps",
    "verify_transitions": "sweeps",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
