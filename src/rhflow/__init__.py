"""Numerical laboratory for the Ricci-harmonic flow on symmetry-reduced
geometries: warped products over a circle and homogeneous products, with
monitors that mechanically check the flow's quantitative estimates."""

__version__ = "0.1.0"

from .geometry import (CurvatureFields, Factor, Fiber, Grid, HomogeneousState,
                       WarpedState, compute_curvature, compute_curvature_homogeneous,
                       curvature_fields, scale_state)
from .christoffel import curvature_oracle_check
from .flow import FlowConfig, StepError, Trajectory, rhs, rhs_homogeneous, run, step
from .oracles import Scenario, exact_state, singular_time
from . import analysis

__all__ = [
    "CurvatureFields", "Factor", "Fiber", "Grid", "HomogeneousState", "WarpedState",
    "compute_curvature", "compute_curvature_homogeneous", "curvature_fields",
    "scale_state", "curvature_oracle_check",
    "FlowConfig", "StepError", "Trajectory", "rhs", "rhs_homogeneous", "run",
    "step", "Scenario", "exact_state", "singular_time", "analysis",
    "__version__",
]
