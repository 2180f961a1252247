"""Gradient-boosted trees with group-coupled objectives for sum-constrained
panel forecasting: a three-pass cascade that pins weekly prediction sums to
known category totals while preserving per-product structure."""

from .errors import (
    ConstraintDataError,
    DegenerateLeafError,
    DegenerateRatioError,
    MetricError,
    ObjectiveError,
    OrderingError,
    PersistenceError,
    ScenarioConfigError,
    SchemaError,
    TriboostError,
    UsageError,
    ValidationError,
)
from .gbdt import (
    GbdtModel,
    GradHess,
    LeafNode,
    RegressionTree,
    SplitCandidate,
    SplitNode,
    StageFit,
    TrainConfig,
    find_best_split,
    fit,
    leaf_weight,
    load_model,
    save_model,
)
from .metrics import AdherenceReport, category_adherence, product_metrics
from .objectives import (
    ConstraintOnlyObjective,
    Stage1Objective,
    Stage2Objective,
    Stage3Objective,
    StageTargets,
    pred_ratio,
    stage3_target,
)
from .panel import (
    GroupLayout,
    PanelDataset,
    PanelRecord,
    load_panel_csv,
    save_panel_csv,
)
from .pipeline import (
    DiagnosticsReport,
    PipelineConfig,
    PipelineResult,
    ProbeResult,
    StageOutputs,
    bias_tally,
    diagnose,
    predict_stages,
    pseudo_label_targets,
    run_pipeline,
    run_stage1,
    run_stage2,
    run_stage3,
    stage3_features,
    trivial_solution_probe,
)
from .scenario import (
    CategoryCurve,
    GroundTruth,
    ScenarioConfig,
    generate,
    write_scenario,
)

__version__ = "0.1.0"
