"""Shortest curvature-constrained (Dubins) CSC path to a target circle.

Given a start pose, a target circle whose radius equals the vehicle turn
radius, and a prescribed rotation direction for the tangential arrival
heading, this package parametrizes the four CSC path lengths over the
arrival angle, locates their extrema and discontinuities analytically,
and returns the shortest path, all verified against a brute-force sweep.
"""

from .circle_target import (
    AlphaEvaluation,
    RotationalRelation,
    RotationDirection,
    TargetCircle,
    assumption_check,
    canonical_instance,
    closed_form_length,
    closed_form_table,
    final_config_at_alpha,
    length_at_alpha,
    mirror_problem,
    perpendicular_distance_to_center,
    rotational_relation,
)
from .errors import (
    AtDiscontinuityError,
    DegenerateDirectionError,
    DubinsCircleError,
    InfeasiblePathError,
)
from .export import PathScene, SweepPlot, export_sweep_csv, render_svg
from .geometry import (
    Configuration,
    normalize_angle,
    wrap_to_pi,
)
from .instances import Instance, InstanceFormatError, load_instance, parse_instance, random_instance
from .paths import (
    CscPath,
    PathType,
    csc_between,
    lsl_between,
    lsr_between,
    rsl_between,
    rsr_between,
    trace_path,
)
from .sampling import PolylineSample, sample_path
from .solver import (
    Discontinuity,
    Extremum,
    ExtremumReport,
    GlobalMinimum,
    SolveResult,
    analytic_derivative,
    discontinuities,
    shortest_for_type,
    shortest_to_circle,
)
from .sweep import RefinedMinimum, SweepResult, refine_min, sweep

__version__ = "0.1.0"

__all__ = [
    "AlphaEvaluation",
    "AtDiscontinuityError",
    "Configuration",
    "CscPath",
    "DegenerateDirectionError",
    "Discontinuity",
    "DubinsCircleError",
    "Extremum",
    "ExtremumReport",
    "GlobalMinimum",
    "InfeasiblePathError",
    "Instance",
    "InstanceFormatError",
    "PathScene",
    "PathType",
    "PolylineSample",
    "RefinedMinimum",
    "RotationDirection",
    "RotationalRelation",
    "SolveResult",
    "SweepPlot",
    "SweepResult",
    "TargetCircle",
    "analytic_derivative",
    "assumption_check",
    "canonical_instance",
    "closed_form_length",
    "closed_form_table",
    "csc_between",
    "discontinuities",
    "export_sweep_csv",
    "final_config_at_alpha",
    "length_at_alpha",
    "load_instance",
    "lsl_between",
    "lsr_between",
    "mirror_problem",
    "normalize_angle",
    "parse_instance",
    "perpendicular_distance_to_center",
    "random_instance",
    "refine_min",
    "render_svg",
    "rotational_relation",
    "rsl_between",
    "rsr_between",
    "sample_path",
    "shortest_for_type",
    "shortest_to_circle",
    "sweep",
    "trace_path",
    "wrap_to_pi",
]
