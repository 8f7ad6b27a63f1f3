"""Certified edge colorings and Hamiltonian structure for chess-piece and
Keller graphs, with multicycle chromatic-index machinery.

Every construction in this package is paired with an independent verifier.
Constructions and searches return unverified results; the command line,
`conjecture 2`, `multicycle.survey` and `kempe.edge_critical_check` verify
each one once, where it leaves, and nothing is reported as colored,
decomposed, or covered until the verifier agrees. A library caller verifies
what it uses.
"""

from .core import (EdgeColoring, Graph, VerificationReport, exact_alpha, exact_omega,
                   verify_clique_cover, verify_edge_coloring, verify_hamiltonian_cycle,
                   verify_hamiltonian_decomposition, verify_hamiltonian_path,
                   vizing_delta_plus_one)
from .chess import (bishop_delta, build_bishop, build_queen, build_rook,
                    classify_queen_prediction, overfull_threshold, queen_delta,
                    queen_edge_count, rook_delta)
from .queen import classify_and_color

__version__ = "0.1.0"

__all__ = [
    "EdgeColoring",
    "Graph",
    "VerificationReport",
    "bishop_delta",
    "build_bishop",
    "build_queen",
    "build_rook",
    "classify_and_color",
    "classify_queen_prediction",
    "exact_alpha",
    "exact_omega",
    "overfull_threshold",
    "queen_delta",
    "queen_edge_count",
    "rook_delta",
    "verify_clique_cover",
    "verify_edge_coloring",
    "verify_hamiltonian_cycle",
    "verify_hamiltonian_decomposition",
    "verify_hamiltonian_path",
    "vizing_delta_plus_one",
    "__version__",
]
