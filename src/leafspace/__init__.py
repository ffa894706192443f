"""Leaf spaces of branching foliations as finitely generated combinatorial
models: non-Hausdorff oriented 1-manifolds with group actions, an exact
path/comparability calculus, and executable consistency checkers."""

from .core import (
    BadOffset,
    BranchLocus,
    Element,
    Family,
    HausdorffTree,
    InvalidModel,
    LeafSpaceError,
    LeafSpaceSpec,
    Point,
    PreconditionFailed,
    PointOutOfRange,
    Tri,
    Truncation,
    TruncatedError,
    UndefinedGenerator,
    UnknownName,
    UnresolvedName,
    ValidationReport,
    branch_loci,
    expand,
    hausdorffify,
    mid_point,
    open_end,
    to_limit,
    to_vertex,
    validate,
    vertex_point,
)
from .paths import Comparability, Interval, Path, PathJunction, compare, interval_contains, path
from .action import (
    BranchingType,
    ComparableSample,
    ElementProfile,
    Word,
    act,
    branching_type,
    classify_element,
    comparable_sample,
    fixed_cells,
    in_comparable_set,
)
from .checkers import (
    CheckReport,
    StabilizerBall,
    check_connected_open,
    check_faithfulness,
    check_fix_propagation,
    check_intermediate_fixed,
    check_invariant_locus_stem,
    check_lower_bound,
    check_odd_path,
    check_path_in_comparable_set,
    check_return,
    screen_infinite_locus,
    stabilizer_ball,
)
from .gallery import GALLERY_NAMES, GalleryEntry, gallery
from .formats import ParseError, SemanticError, emit, parse
from .randspec import RandomParams, random_spec

__version__ = "0.1.0"
