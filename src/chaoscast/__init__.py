"""chaoscast: short-horizon linear prediction of large chaotic systems.

Builds libraries of stationary attractor estimates at fixed tuning
parameters, fits many small subset regressions on random delay maps,
combines them by mean or majority-vote with shrinkage and calibration,
scores the forecasts, and inverts the procedure to estimate the tuning
parameter from anomaly patterns.
"""

from .config import PipelineConfig, load_config, save_config
from .dynamics import (AttractorEstimate, SurrogateConfig, TuningParameter,
                       build_attractor_library, detect_steady_state, integrate_grid,
                       integrate_lorenz96, seasonal_aggregate, steady_run, synth_index)
from .embedding import (DelayMap, WindowSchedule, build_design_matrix,
                        sample_delay_maps, split_windows)
from .ensemble import (EnsembleForecast, ModelGroup, PredictorKey, Station,
                       combine_members, form_keys, median_combine,
                       rank_models, retain_predictors, take_top_percent)
from .ground import load_panel, make_ground_panel, standardize_anomalies
from .inversion import (InversionResult, estimate_parameter, invert_parameter,
                        key_significance_counts, smooth_counts)
from .metrics import (SkillReport, adjusted_dof, benjamini_hochberg, box_ljung,
                      correlation_pvalue, heidke_skill, pooled_correlations,
                      running_skill, tercile_boundaries)
from .panel import Panel
from .pipeline import PipelineResult, run_pipeline
from .shrinkage import (ShrinkageReport, apply_bias_correction,
                        bootstrap_shrinkage, calibrate, stein_adjust)
from .subset import SubsetModel, mallows_cp, select_model

__version__ = "0.1.0"
