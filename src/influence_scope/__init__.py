"""Detection of hidden mutual influences between configurable agents.

The package provides dependency-measure estimators (mutual information,
MIC, correlations), a sample-log data model, conditioned influence
detection with permutation significance, a smart-camera-network simulator
for generating logs, and a taxonomy-driven strategy recommender.
"""

from .errors import DegenerateSeriesError, InputError, InternalConsistencyError
from .series import CategorySeries, RealSeries
from .measures import (
    BinLayout,
    DependencyScore,
    Measure,
    discrete_mutual_information,
    entropy,
    linear_correlation,
    mic,
    quantile_bins,
    rank_correlation,
)
from .model import (
    AgentSchema,
    ConfigPartSchema,
    ConfigSelector,
    Nominal,
    Ordinal,
    PerformanceSelector,
    RealInterval,
    SampleLog,
    SampleRecord,
    extract_series,
    validate_log,
)
from .detection import (
    ConditionedScore,
    DetectionStrategy,
    InfluenceEntry,
    InfluenceMatrix,
    conditioned_influence,
    influence_matrix,
    joint_influence,
    raw_influence,
)
from .camera import (
    CameraPose,
    CameraSpec,
    FixedPtz,
    PtzConfig,
    ScenarioSpec,
    UniformRandomPtz,
    run_scenario,
    scenario_from_dict,
)
from .taxonomy import (
    SystemDescriptor,
    StrategyRecommendation,
    builtin_descriptor,
    recommend_strategy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
