"""Road-network topology toolkit.

Turns vector road centerline graphs into segmentation and connectivity
training labels, turns predicted masks back into graphs, scores predictions
with pixel metrics and a path-length-similarity graph metric, and ships
numerically checked reference kernels for the training losses and the global
attention block.
"""

from .graph import (
    Edge,
    GraphBuilder,
    GraphParseError,
    GraphSchemaError,
    RoadGraph,
    Window,
    crop_graph,
    node_degrees,
    parse_graph,
    serialize_graph,
)
from .labels import (
    LabelParams,
    connectivity_label,
    distance_map,
    gaussian_heatmap,
    pixel_connectivity_label,
    rasterize_centerline,
)
from .losses import (
    ClassWeights,
    balanced_ce_loss,
    finite_diff_gradient,
    inverse_boundary_weights,
    soft_iou_loss,
    total_loss,
)
from .metrics import AplsParams, PixelScore, apls, iou, relaxed_iou, snap_similarity
from .tiling import TilePlan, plan_tiles, stitch
from .vectorize import mask_to_graph, prune_hanging, simplify_rdp, skeleton_to_graph, skeletonize

__version__ = "0.1.0"

__all__ = [
    "AplsParams",
    "ClassWeights",
    "Edge",
    "GraphBuilder",
    "GraphParseError",
    "GraphSchemaError",
    "LabelParams",
    "PixelScore",
    "RoadGraph",
    "TilePlan",
    "Window",
    "apls",
    "balanced_ce_loss",
    "connectivity_label",
    "crop_graph",
    "distance_map",
    "finite_diff_gradient",
    "gaussian_heatmap",
    "inverse_boundary_weights",
    "iou",
    "mask_to_graph",
    "node_degrees",
    "parse_graph",
    "pixel_connectivity_label",
    "plan_tiles",
    "prune_hanging",
    "rasterize_centerline",
    "relaxed_iou",
    "serialize_graph",
    "simplify_rdp",
    "skeleton_to_graph",
    "skeletonize",
    "snap_similarity",
    "soft_iou_loss",
    "stitch",
    "total_loss",
]
