"""Shortcuts that minimize the continuous diameter of a geometric tree.

A geometric tree is a tree embedded in the plane with straight-line
edges weighted by their Euclidean length.  This package finds the
straight-line shortcut pq minimizing the continuous diameter of the
augmented tree T + pq, evaluates and classifies candidate shortcuts
exactly, and ships a brute-force grid oracle for verification.
"""

from .augmented_eval import (
    INDIFFERENT,
    USEFUL,
    USELESS,
    AugmentedDiagnosis,
    OrderedUsefulness,
    Usefulness,
    augmented_diameter,
    augmented_diameter_value,
    classify_usefulness,
    has_useful_shortcut,
    pair_is_useful,
)
from .diameter_core import (
    BackboneDecomposition,
    CenterResult,
    DiameterResult,
    absolute_center,
    backbone,
    continuous_diameter,
)
from .errors import (
    DuplicateVertexId,
    EmptyMatrix,
    InvalidEdgeReference,
    NoRootInBracket,
    NotATree,
    ParseError,
    PointsNotOnTree,
    ResolutionTooCoarse,
    ResolutionTooFine,
    TreecutError,
    ZeroLengthEdge,
)
from .oracle import (
    GridResult,
    dense_sample_diameter,
    grid_search,
    point_backbone_tree,
    random_tree,
    straight_backbone_tree,
    stress_family,
)
from .smawk import ImplicitMatrix, longest_wedge_path, row_maxima
from .sweep_engine import (
    Event,
    OptimizeResult,
    balance_solve,
    optimize,
)
from .tree_model import (
    GeometricTree,
    PathTrace,
    Shortcut,
    TreePoint,
    distances_from,
    euclidean_distance,
    load_tree,
    network_distance,
    point_coordinates,
    tree_from_data,
    tree_path,
)

__version__ = "1.0.0"
