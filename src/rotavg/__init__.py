"""Uncertainty-weighted robust rotation averaging on view graphs."""

from .evaluate import AlignmentResult, align_rotations, auc, export_cdf
from .losses import LossEval, LossSpec, chi_quantile, upper_incomplete_gamma
from .so3 import Rotation, exp_so3, geodesic_angle, log_so3, relative_residual
from .solver import AveragingResult, SolverConfig, cost, solve
from .synth import SynthConfig, SynthScene, generate_graph, generate_two_view_scene
from .twoview import (
    CameraIntrinsics,
    TwoViewGeometry,
    covariance_of_rotation,
    fundamental_from_pose,
    rotation_covariances,
    rotation_jacobian,
)
from .viewgraph import (
    EdgeMeasurement,
    ViewGraph,
    ViewNode,
    connected_components,
    load_graph,
    save_graph,
    spanning_tree_init,
)

__version__ = "0.1.0"
