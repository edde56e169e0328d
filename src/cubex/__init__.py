"""Cubical complexes from simple expansion systems.

Concrete systems: prefix-substitution classes over the binary Cantor set
(`thompson`, the complex for Thompson's group V) and point/ray classes
over n copies of the naturals (`houghton`, the complexes for Houghton's
groups H_n).  `cubical` holds the instance-generic engine; `oracle`
holds seeded generators and brute-force verifiers; `verify` bundles the
structural checks behind the `cubex verify` command.
"""

from .core import (
    AscendingPath,
    CapExceeded,
    DomainMismatch,
    DuplicateElement,
    ExpansionSystem,
    InputError,
    Move,
    MoveNotApplicable,
    NotABijection,
    OverlappingSupports,
    Vertex,
    apply_move,
    validate_vertex,
)
from .cubical import (
    Cube,
    CubeComplex,
    ExplorationGraph,
    FlagReport,
    LemmaReport,
    LinkGraph,
    cube_intersection,
    cube_vertices,
    graph_to_dot,
    graph_to_json_obj,
    intersection_lemma_check,
    vertex_in_cube,
)
from .houghton import (
    HGroupElement,
    HoughtonSystem,
    HPointClass,
    HRayClass,
    canonicalize_point,
    canonicalize_ray,
)
from .thompson import (
    BallRegion,
    VElement,
    VGroupElement,
    VSystem,
    canonicalize,
    glue,
    reduce_table,
)

__version__ = "0.1.0"

__all__ = [
    "AscendingPath",
    "BallRegion",
    "CapExceeded",
    "Cube",
    "CubeComplex",
    "DomainMismatch",
    "DuplicateElement",
    "ExpansionSystem",
    "ExplorationGraph",
    "FlagReport",
    "HGroupElement",
    "HoughtonSystem",
    "HPointClass",
    "HRayClass",
    "InputError",
    "LemmaReport",
    "LinkGraph",
    "Move",
    "MoveNotApplicable",
    "NotABijection",
    "OverlappingSupports",
    "VElement",
    "VGroupElement",
    "VSystem",
    "Vertex",
    "apply_move",
    "canonicalize",
    "canonicalize_point",
    "canonicalize_ray",
    "cube_intersection",
    "cube_vertices",
    "glue",
    "graph_to_dot",
    "graph_to_json_obj",
    "intersection_lemma_check",
    "reduce_table",
    "validate_vertex",
    "vertex_in_cube",
]
