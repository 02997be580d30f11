"""Multi-objective architecture search engine for lane detection.

Subpackages cover the genome grammar and mutation space (arch_space),
the analytic FLOPS objective (cost_model), the Pareto-archive search
loop (search_engine), lane proposal geometry (lane_model), the adaptive
point-blending post-processor (point_blend), IoU-F1 / point-accuracy
metrics (metrics), file and wire formats (data_io), the synthetic scene
generator (synth) and the CLI (cli).
"""

from .arch_space import (
    ArchEncoding,
    BackboneSpec,
    BlockKind,
    FusionLayer,
    FusionSpec,
    SpaceConfig,
    parse_backbone,
    serialize_backbone,
    space_cardinality,
)
from .cost_model import CostReport, candidate_cost, conv_cost
from .errors import LaneNasError
from .lane_model import AnchorLayout, GridCell, HeadGrid, LaneProposalSet
from .metrics import lane_iou, match_and_score, rasterize_lane, tusimple_accuracy
from .point_blend import (
    BlendParams,
    BlendParamSet,
    BlendParamSpace,
    LaneTable,
    apply_mask,
    mask_logit,
    postprocess,
)
from .search_engine import (
    Candidate,
    ExternalEvaluator,
    ParetoArchive,
    SearchConfig,
    SyntheticEvaluator,
    dominates,
    run_blend_inner_search,
    run_search,
)

__version__ = "0.1.0"
