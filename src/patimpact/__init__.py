"""Time-variant patent impact analysis.

Forecasts 3/5/10-year forward-citation impact classes of granted patents
with a shared-trunk multi-task classifier over 44 bibliometric indicators,
explains predictions with Shapley attributions, and validates them with
ordered-trend tests and topic-level impact scores.
"""

from .corpus import (
    ClassThresholds,
    Corpus,
    CorpusError,
    FIXED_THRESHOLDS,
    HORIZONS,
    Horizon,
    ImpactClass,
    PatentRecord,
    ThresholdPair,
    TrajectoryPattern,
    assign_impact_class,
    derive_thresholds,
    forward_citation_count,
    load_corpus,
    save_corpus,
    trajectory_pattern,
)
from .indicators import (
    FEATURE_NAMES,
    FeatureVector,
    IpcStats,
    Standardizer,
    corpus_ipc_stats,
    extract_features,
    fit_standardizer,
)
from .metrics import (
    ClassMetrics,
    ConfusionMatrix3,
    class_metrics,
    comparison_rows,
    overall_metrics,
    stratified_kfold,
)
from .mtl import (
    MtlModel,
    NetworkConfig,
    TrainConfig,
    gradient_check,
    init_network,
    predict_batch,
    train,
    train_stl,
)
from .explain import (
    AttributionRow,
    AttributionTarget,
    BackgroundSet,
    FeatureGrouping,
    default_grouping,
    global_importance,
    group_summary,
    shapley_exact,
    shapley_sampled,
)
from .validate import (
    JTResult,
    OrderedGroups,
    TopicScoreTable,
    jonckheere_terpstra,
    topic_impact_scores,
    validate_value_indicators,
)
from .synth import SynthParams, generate_synthetic
from .pipeline import PipelineConfig, RunManifest, load_config, run_pipeline

__version__ = "0.1.0"
