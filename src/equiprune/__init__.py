"""Tree-ensemble pruning with certified prediction equivalence.

The package prunes weighted tree ensembles by alternating a weight-selection
MILP with an exact counterexample search, optionally restricted to a
conformally calibrated in-distribution region. Certified results come with
solver certificates and can be cross-checked by exhaustive cell enumeration.
"""

from .conformal import CalibrationResult, calibrate
from .data import Dataset, FeatureMeta, SplitSpec, load_csv, save_csv, split
# the evaluate() function itself stays in its submodule: re-exporting it
# here would shadow the equiprune.evaluate module
from .evaluate import EvalReport, clopper_pearson_upper, select_alpha
from .loop import PruneConfig, PruneResult, run, run_full_space
from .oracle import Counterexample, find_counterexamples
from .pruner import PrunerProblem, solve_pruner
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
from .milp import MilpModel, MilpSolution, export_lp, solve
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
