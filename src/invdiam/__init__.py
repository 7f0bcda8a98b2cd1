"""Exact computation and verification for graph orientation inversions.

Distances and diameters of orientation reconfiguration are computed by a
complete backtracking solver for vector assignments over F2^t, and
re-derived independently by brute-force BFS over flip words.  On top sit
leveled clique-expansion families with lemma probes, and exhaustive
re-verification of local reducibility configurations.
"""

from .assignment import (
    Assignment,
    diameter_via_assignment,
    enumerate_assignments,
    hardest_label,
    least_dim,
    min_dim,
    solve,
    verify,
)
from .certificates import check_family
from .errors import BudgetExceededError, InputFormatError, InvariantError
from .family import (
    LeveledGraph,
    build_family,
    is_k_tree,
    probe_bad_cliques,
    probe_clique_independence,
    probe_extension_dichotomy,
)
from .graph import (
    Graph,
    Label,
    Orientation,
    parse_labeled_graph,
    serialize_labeled_graph,
)
from .inversion import diff_label, invert
from .reducibility import (
    BoundaryFamily,
    ReducibilityConfiguration,
    builtin_configs,
    check_reducible,
    enumerate_families,
    run_suite,
)

__version__ = "0.1.0"
