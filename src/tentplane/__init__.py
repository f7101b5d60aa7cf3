"""Symbolic planar model of tent map dynamics.

The package builds the itinerary calculus for tent maps on [0, 1]:
kneading sequences, signed lexicographic comparison, admissibility,
landing indices and arc projections, a ternary height chart for left
tails, planar scenes with semicircular joins, and a stack of local
collapse maps with runtime certificates in place of proofs.

The package root exports the names the scene pipeline, the command line
and the acceptance suite use; helpers such as ``plex_compare``,
``orbit_compare`` or ``head_matches`` are imported from their submodules.
"""
from .cantor import block_midpoint, cantor_coordinate, compare_tails
from .arcs import arc_projection, boundary_pairs, resolve_x
from .errors import (
    AmbiguousAtDepth,
    ChartOverflow,
    ConflictError,
    MalformedSequence,
    MalformedStarPeriod,
    NotAdmissible,
    ParseError,
    TentplaneError,
    WrongContext,
)
from .glue import (
    accessibility_probe,
    build_glue_stack,
    cauchy_certificate,
    ceiling_certificate,
    collapse_certificate,
    collapse_profile,
    displacement_certificate,
    fiber_collapse,
    support_certificate,
)
from .kneading import (
    KneadingSequence,
    enumerate_cylinders,
    is_admissible_tail,
    kneading_from_slope,
    validate_kneading,
)
from .scene import (
    SceneJoin,
    betweenness_check,
    build_scene,
    scene_from_json,
    scene_to_json,
    verify_noncrossing,
)
from .sequences import LeftTail, RightSeq, parse_left, parse_right
from .svg import render_scene

__version__ = "0.1.0"

__all__ = [
    "AmbiguousAtDepth",
    "ChartOverflow",
    "ConflictError",
    "KneadingSequence",
    "LeftTail",
    "MalformedSequence",
    "MalformedStarPeriod",
    "NotAdmissible",
    "ParseError",
    "RightSeq",
    "SceneJoin",
    "TentplaneError",
    "WrongContext",
    "accessibility_probe",
    "arc_projection",
    "betweenness_check",
    "block_midpoint",
    "boundary_pairs",
    "build_glue_stack",
    "build_scene",
    "cantor_coordinate",
    "cauchy_certificate",
    "ceiling_certificate",
    "collapse_certificate",
    "collapse_profile",
    "compare_tails",
    "displacement_certificate",
    "enumerate_cylinders",
    "fiber_collapse",
    "is_admissible_tail",
    "kneading_from_slope",
    "parse_left",
    "parse_right",
    "render_scene",
    "resolve_x",
    "scene_from_json",
    "scene_to_json",
    "support_certificate",
    "validate_kneading",
    "verify_noncrossing",
]
