"""Tree-ensemble pruning with certified prediction equivalence.

The package prunes weighted tree ensembles by alternating a weight-selection
MILP with an exact counterexample search, optionally restricted to a
conformally calibrated in-distribution region. Certified results come with
solver certificates and can be cross-checked by exhaustive cell enumeration.

The root exports what re-checks a result (data, ensembles, score models,
calibration, evaluation, verification) and loads no solver and no scipy. The
solver side is imported from ``equiprune.loop``, ``.pruner``, ``.oracle`` and
``.milp``.
"""

from .conformal import CalibrationResult, calibrate
from .data import Dataset, FeatureMeta, SplitSpec, load_csv, save_csv, split
# the evaluate() function itself stays in its submodule: re-exporting it
# here would shadow the equiprune.evaluate module
from .evaluate import EvalReport, clopper_pearson_upper, select_alpha
from .verify import (
    check_equivalence_exhaustive,
    check_state_bound,
    enumerate_low_score_states,
)
from .ensemble import (
    Ensemble,
    Internal,
    Leaf,
    ThresholdIndex,
    load_ensemble,
    predict_classes,
    save_ensemble,
    threshold_index,
    train_boosted,
)
from .plausibility import (
    BinGrid,
    ChowLiuModel,
    IsolationForestModel,
    LeafSupportModel,
    ScoreModel,
    build_bin_grid,
    fit_chow_liu,
    fit_isolation_forest,
    fit_leaf_support,
    fit_score_model,
    load_score_model,
    save_score_model,
)
from .synth import MoonsSpec, TreeDistSpec, gen_moons, gen_tree_dist

__all__ = [name for name in dir() if not name.startswith("_")]
