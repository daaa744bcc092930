"""defectcast: hybrid defect-content and QA-effectiveness estimation.

Combines expert-elicited influence-factor impact distributions with
historical release measurements to calibrate a context and predict the
defect content of a product and the effectiveness of a QA activity,
plus the validation apparatus to judge the resulting models.
"""

from .calibration import (
    CalibratedContext,
    DescriptiveStats,
    ReleaseCalibration,
    calibrate,
    descriptive_stats,
)
from .bundle import ContextBundle, ValidationIssue, load_bundle
from .errors import (
    AllZeroDifferencesError,
    BundleValidationError,
    EmptyDistributionError,
    EstimationError,
    InsufficientHistoryError,
    MissingFactorError,
    MissingLevelError,
    MissingQuantificationError,
    NoEffectivenessHistoryError,
    NoUsableHistoryError,
    UndefinedEffectivenessError,
    ZeroActualError,
)
from .evaluation import (
    AblationCurve,
    AccuracyCase,
    AccuracyReport,
    Crossval,
    HistorySimulation,
    MODEL_DC_MEDIAN,
    MODEL_DD_MEDIAN,
    MODEL_EFF_MEDIAN,
    MODEL_INFLUENCE_FACTOR,
    WilcoxonResult,
    ablation_curve,
    accuracy_metrics,
    history_simulation,
    loocv,
    wilcoxon_one_sided,
)
from .model import (
    ExpertTriangle,
    FactorRanking,
    InfluenceFactor,
    RankedFactor,
    Ranking,
    ReleaseRecord,
    Target,
    aggregate_rankings,
    defect_content,
    defect_density,
    effectiveness,
)
from .prediction import (
    DEFAULT_QUANTILES,
    NewReleaseSpec,
    Prediction,
    Predictions,
    predict_defect_content,
    predict_defects_found,
    predict_effectiveness,
)
from .report import render_report
from .sampling import (
    EngineOptions,
    analytic_mean_increase,
    empirical_quantile,
    increase_distribution,
    triangle_inverse_cdf,
    triangle_variance,
)

__version__ = "0.1.0"
