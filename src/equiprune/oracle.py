"""Exact counterexample search over the cells of a tree ensemble.

For every ordered class pair (c, c2), a MILP asks for a cell where the
original weights predict c while the candidate weights predict c2, optionally
restricted to the in-distribution region s(x) <= tau, encoded from the
terms the score model writes s as (``ScoreModel.score_terms``), the form
its ``scores`` sum and the verifier tabulates (``encode_region``). Feature
positions are encoded by monotone interval indicators over the per-feature
threshold sets; each tree contributes one-hot leaf indicators, one per row
of its stacked leaf scores, linked to those intervals by the leaf's
root-to-leaf decisions (``StackedTrees.paths``). A solution is decoded straight to its cell's
representative point (``ThresholdIndex.representatives``), the point the
verifier checks too.

Each pair MILP is solved to optimality or proven infeasibility.
Infeasibility of every pair MILP is a certificate that no counterexample
exists, up to the strict-margin approximation of argmax ties: class rows hold
a fixed margin of ``EPS_STRICT``, and tie-rule rows ``EPS_STRICT *
pruner.TIE_FACTOR``. The margin applies to the candidate weights rescaled to
the original total weight, so the certificate, like the predictions, does not
depend on the candidate's scale. Any solver limit makes the whole search
uncertified: the absence of a found counterexample is then not a certificate.

Every pair MILP of a run shares one ``SearchModel``: the variables, the
threshold chain, the leaf rows and the score encoding, with their CSR arrays,
built once. A pair MILP adds only its class rows, between the leaf rows and
the score rows, and its objective, and its LP stacks the shared arrays with
those rows. ``search_model`` alone decides the region: with no score model
or an infinite tau it encodes none, and the search is over the whole
space. ``loop.run`` builds the search model once per run.

The pair MILPs of one search are independent, and they are solved
concurrently, one HiGHS model per worker thread, on a pool of as many threads
as there are pairs or usable CPUs, whichever is fewer. Each pair's model is
built on the calling thread, in pair order, and handed to a worker as soon as
it is built: building is pure Python, while the HiGHS binding releases the
GIL during each LP solve, so the next model is built while the previous one
solves. Each solve keeps its own LP relaxation and HiGHS instance, so every
LP, pivot and optimum is the one a serial solve would produce. Decoding, the
recheck, ``dump_dir`` writes and the result are handled on the calling thread
in pair order.
"""

from __future__ import annotations

import logging
import math
import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ensemble import Ensemble, StackedTrees, ThresholdIndex, predict_classes, threshold_index
from .milp import (
    BINARY,
    EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    GREATER_EQUAL,
    OPTIMAL,
    MilpModel,
    MilpSolution,
    RowBlock,
    Variable,
    export_lp,
    solve,
)
from .plausibility import LookupTerms, ScoreModel, TreeTerms
from .pruner import TIE_FACTOR

EPS_STRICT = 1e-6

log = logging.getLogger("equiprune")


@dataclass
class FeatureEncoding:
    """Monotone interval indicators mu[j][k] meaning x_j <= theta_{j,k}."""

    thresholds: ThresholdIndex
    model: MilpModel
    mu: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        for j in range(self.thresholds.n_features):
            row = [self.model.add_var(name=f"mu_{j}_{k}", kind=BINARY)
                   for k in range(len(self.thresholds.thresholds(j)))]
            for k in range(len(row) - 1):
                # monotone chain: x <= theta_k implies x <= theta_{k+1}
                self.model.add_constraint({row[k]: 1.0, row[k + 1]: -1.0},
                                          LESS_EQUAL, 0.0)
            self.mu.append(row)

    def mu_at(self, j: int, threshold: float) -> int:
        ts = self.thresholds.thresholds(j)
        k = bisect_left(ts, threshold)
        if k >= len(ts) or ts[k] != threshold:
            raise ValueError(f"threshold {threshold} not indexed for feature {j}")
        return self.mu[j][k]

    def add_leaf_vars(self, stack: StackedTrees, tag: str = "") -> np.ndarray:
        """One-hot leaf binaries ``z_{tag}{m}_{i}`` of every tree m of
        ``stack``, linked to the intervals by its leaves' stacked paths, one
        per leaf row; all split thresholds must be members of the augmented
        index."""
        leaf_vars = []
        for m in range(len(stack.roots)):
            paths = stack.paths[stack.leaf_rows(m)]
            tree_vars = [self.model.add_var(name=f"z_{tag}{m}_{i}", kind=BINARY)
                         for i in range(len(paths))]
            self.model.add_constraint({v: 1.0 for v in tree_vars}, EQUAL, 1.0)
            for v, path in zip(tree_vars, paths):
                for feature, threshold, goes_left in path:
                    mu = self.mu_at(feature, threshold)
                    if goes_left:
                        self.model.add_constraint({v: 1.0, mu: -1.0},
                                                  LESS_EQUAL, 0.0)
                    else:
                        self.model.add_constraint({v: 1.0, mu: 1.0},
                                                  LESS_EQUAL, 1.0)
            leaf_vars += tree_vars
        return np.array(leaf_vars, dtype=np.intp)

    def add_bin_indicator_vars(self, j: int, boundaries) -> list[int]:
        """Bin indicators q_{j,b} = mu(upper boundary) - mu(lower boundary),
        materialized as binaries with linking equalities and a sum-to-one."""
        m = self.model
        qs = [m.add_var(name=f"q_{j}_{b}", kind=BINARY)
              for b in range(len(boundaries) + 1)]
        if not boundaries:  # degenerate single-state feature
            m.add_constraint({qs[0]: 1.0}, EQUAL, 1.0)
            return qs
        mus = [self.mu_at(j, t) for t in boundaries]
        m.add_constraint({qs[0]: 1.0, mus[0]: -1.0}, EQUAL, 0.0)
        for b in range(1, len(boundaries)):
            m.add_constraint({qs[b]: 1.0, mus[b]: -1.0, mus[b - 1]: 1.0},
                             EQUAL, 0.0)
        m.add_constraint({qs[-1]: 1.0, mus[-1]: 1.0}, EQUAL, 1.0)
        m.add_constraint({q: 1.0 for q in qs}, EQUAL, 1.0)
        return qs


@dataclass(frozen=True)
class Counterexample:
    x: tuple[float, ...]
    original_class: int
    pruned_class: int


@dataclass
class OracleResult:
    """A search's verdict, its finds and each class pair's solution, which
    carries the pair's status, nodes, ``lp_iterations`` and solve seconds
    (``wall_time_s``)."""

    certified: bool
    found: list[Counterexample]
    pair_solutions: dict[tuple[int, int], MilpSolution] = field(
        default_factory=dict)

    @property
    def pair_statuses(self) -> dict[tuple[int, int], str]:
        return {pair: sol.status for pair, sol in self.pair_solutions.items()}

    @property
    def nodes(self) -> int:
        """Branch-and-bound nodes over every pair MILP."""
        return sum(sol.nodes for sol in self.pair_solutions.values())

    @property
    def solve_s(self) -> float:
        """Seconds summed over the pair solves; they overlap in time, so
        this can exceed the search's wall time."""
        return sum(sol.wall_time_s for sol in self.pair_solutions.values())


@dataclass(frozen=True, eq=False)
class SearchModel:
    """The part of a run's pair MILPs that neither the class pair nor the
    weights change: the variables, the interval indicators ``mu[j][k]``
    (x_j <= the k-th threshold of feature j), the leaf indicators, one per
    row of the ensemble's stacked leaf scores, and two row blocks: ``cells``
    (threshold chain and leaf rows) and ``region`` (the score encoding;
    empty without one). ``reps`` are the
    cell representatives of its threshold index. ``score`` and ``tau`` are
    the region s(x) <= tau it encodes: None and +inf for the whole space."""

    ensemble: Ensemble
    reps: list[np.ndarray]
    variables: tuple[Variable, ...]
    mu: list[list[int]]
    leaf_vars: np.ndarray
    cells: RowBlock
    region: RowBlock
    score: ScoreModel | None
    tau: float


def search_model(e: Ensemble, score: ScoreModel | None = None,
                 tau: float = math.inf) -> SearchModel:
    """The search model of ``e`` over the region s(x) <= tau: the whole
    space when there is no score model or tau is infinite. Otherwise the
    threshold index takes the score's ``extra_thresholds`` and the score
    constraint is encoded."""
    if score is None or not math.isfinite(tau):
        score, tau = None, math.inf
    theta = threshold_index(
        e, extra=None if score is None else score.extra_thresholds())
    model = MilpModel()
    enc = FeatureEncoding(thresholds=theta, model=model)
    leaf_vars = enc.add_leaf_vars(e._stacked)
    n_cell_rows = len(model.constraints)
    if score is not None:
        encode_region(enc, e, leaf_vars, score.score_terms(e), tau)
    return SearchModel(
        ensemble=e, reps=theta.representatives(),
        variables=tuple(model.variables), mu=enc.mu, leaf_vars=leaf_vars,
        cells=RowBlock.of(model.constraints[:n_cell_rows]),
        region=RowBlock.of(model.constraints[n_cell_rows:]),
        score=score, tau=tau)


def encode_region(enc: FeatureEncoding, e: Ensemble, leaf_vars,
                  terms: TreeTerms | LookupTerms, tau: float) -> None:
    """Add s(x) <= tau, s written as ``terms`` (``score_terms(e)``), to
    ``enc.model`` as one row. Tree terms weight one leaf indicator per
    stacked leaf row by ``values[:, 0] / divisor``: e's own ``leaf_vars``
    when they sum e's trees (row ``score_ls``), else new ``z_iso...`` ones
    of their own trees (``score_if``). Lookup terms (``score_cl``) weight
    bin indicators, made per feature in the order the features first
    appear; a two-feature table (i, j) weights pairwise ``u[b, b2]`` in
    [0, 1] tied to the bins by ``sum_b2 u[b, b2] = q_i[b]`` and
    ``sum_b u[b, b2] = q_j[b2]``. With one-hot ``q`` these force
    ``u = q_i q_j``, so ``u`` needs no integrality (on a tree of pairs, as
    Chow-Liu's, the local polytope is the marginal polytope; Wainwright &
    Jordan, 2008, sec. 4.1)."""
    model = enc.model
    if isinstance(terms, TreeTerms):
        name = "score_ls"
        if terms.ensemble is not e:
            name = "score_if"
            leaf_vars = enc.add_leaf_vars(terms.ensemble._stacked, tag="iso")
        row = zip(leaf_vars.tolist(),
                  (terms.values[:, 0] / terms.divisor).tolist())
        model.add_constraint(row, LESS_EQUAL, float(tau), name=name)
        return
    order = dict.fromkeys(j for features, _ in terms.terms for j in features)
    bins = {j: enc.add_bin_indicator_vars(j, terms.grid.boundaries[j])
            for j in order}
    row = []
    for features, table in terms.terms:
        if len(features) == 1:
            row += zip(bins[features[0]], table.tolist())
            continue
        i, j = features
        qi, qj = bins[i], bins[j]
        u = [[model.add_var(name=f"u_{i}_{j}_{b}_{b2}", lb=0.0, ub=1.0)
              for b2 in range(len(qj))] for b in range(len(qi))]
        for b, q in enumerate(qi):
            model.add_constraint([(v, 1.0) for v in u[b]] + [(q, -1.0)],
                                 EQUAL, 0.0)
        for b2, q in enumerate(qj):
            model.add_constraint([(r[b2], 1.0) for r in u] + [(q, -1.0)],
                                 EQUAL, 0.0)
        row += zip((v for r in u for v in r), table.ravel().tolist())
    model.add_constraint(row, LESS_EQUAL, float(tau), name="score_cl")


def build_pair_milp(search: SearchModel, w0, w, c: int, c2: int):
    """MILP whose feasible points are cells where the original weights
    predict c and the candidate weights predict c2 (within the strict-margin
    approximation), inside the region ``search`` encodes. Returns the model
    and the search model's ``mu`` and leaf indicators."""
    e = search.ensemble
    leaf_vars = search.leaf_vars
    model = MilpModel(variables=list(search.variables))
    model.add_rows(search.cells)

    def class_constraints(weights, target):
        # Strict pairs get the full margin; tie-rule pairs TIE_FACTOR of it,
        # keeping solutions off the exact argmax boundary. Both sit inside
        # the documented strict-margin approximation of the search.
        for other in range(e.n_classes):
            if other == target:
                continue
            coeffs = _score_difference(e, weights, target, other, leaf_vars)
            rhs = EPS_STRICT if other < target else EPS_STRICT * TIE_FACTOR
            model.add_constraint(coeffs, GREATER_EQUAL, rhs,
                                 name=f"cls_{target}_vs_{other}")

    class_constraints(np.asarray(w0, dtype=float), c)
    class_constraints(np.asarray(w, dtype=float), c2)
    model.add_rows(search.region)

    # Strongest violation first: maximize the candidate-model margin of c2
    # over c. Any feasible point is a valid counterexample; the objective
    # only picks informative cuts.
    objective = _score_difference(e, np.asarray(w, dtype=float), c2, c,
                                  leaf_vars)
    model.set_objective(objective, sense="max")
    return model, search.mu, leaf_vars


def _score_difference(e: Ensemble, weights, a: int, b: int,
                      leaf_vars) -> dict[int, float]:
    """Coefficients over the leaf indicators (one per stacked leaf row) of
    the weighted score margin of class a over class b, in tree and leaf
    order; zero terms (trees of weight zero among them) are left out."""
    stack = e._stacked
    S = stack.leaf_scores
    coef = np.asarray(weights)[stack.leaf_tree] * (S[:, a] - S[:, b])
    keep = np.flatnonzero(coef != 0.0)
    return dict(zip(leaf_vars[keep].tolist(),
                    coef[keep].tolist()))


def _decode_point(values, mu, reps) -> np.ndarray:
    """The solved cell's representative: feature j's first set mu[j][k]
    picks ``reps[j][k]``; none set picks the right-unbounded interval."""
    picks = (next((k for k, var in enumerate(row) if values[var] > 0.5),
                  len(row))
             for row in mu)
    return np.array([table[k] for table, k in zip(reps, picks)])


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def find_counterexamples(search: SearchModel, w0, w,
                         time_limit_s: float = 120.0,
                         node_limit: int | None = None,
                         dump_dir: str | None = None) -> OracleResult:
    """Search every ordered class pair of ``search``'s ensemble for a
    prediction disagreement inside its region.

    Each pair MILP is solved to optimality, so a pair's counterexample is
    the cell where the candidate's margin of c2 over c is largest. Returns
    certified=True only when every pair MILP proved infeasible; a pair that
    hits ``time_limit_s`` or ``node_limit`` (each bounds every pair's solve
    on its own) leaves the result uncertified, though its incumbent, if any,
    is still returned. The candidate's class rows are built for w rescaled
    to the total of w0, so the strict margin ``EPS_STRICT`` is relative to
    the original weight scale and shrinking w cannot hide a flip. Found
    counterexamples are rechecked with exact ensemble arithmetic on w
    itself, and with the score model in the region; a candidate that fails
    the recheck is dropped and the result is marked uncertified. The pairs
    are solved concurrently (see the module docstring); an exception raised
    by one pair's solve is raised here once the solves already running have
    ended.
    """
    e = search.ensemble
    w_search = np.asarray(w, dtype=float)
    if w_search.sum() > 0:
        w_search = w_search * (np.asarray(w0, dtype=float).sum() / w_search.sum())
    pairs = [(c, c2) for c in range(e.n_classes)
             for c2 in range(e.n_classes) if c2 != c]
    pool = ThreadPoolExecutor(max_workers=max(1, min(len(pairs),
                                                     _usable_cpus())))
    try:
        jobs = []
        for c, c2 in pairs:
            model, mu, _ = build_pair_milp(search, w0, w_search, c, c2)
            job = pool.submit(solve, model, time_limit_s=time_limit_s,
                              node_limit=node_limit)
            jobs.append((c, c2, mu, model, job))
        solved = [(c, c2, mu, model, job.result())
                  for c, c2, mu, model, job in jobs]
    finally:
        pool.shutdown(cancel_futures=True)

    certified = True
    found: list[Counterexample] = []
    solutions: dict[tuple[int, int], MilpSolution] = {}
    for c, c2, mu, model, sol in solved:
        solutions[(c, c2)] = sol
        log.debug("search pair %d->%d: %s in %d nodes, %d LP iterations, "
                  "%.3f s (build %.3f s, LP %.3f s)", c, c2, sol.status,
                  sol.nodes, sol.lp_iterations, sol.wall_time_s, sol.build_s,
                  sol.lp_s)
        if dump_dir is not None:
            _dump_pair(dump_dir, c, c2, model, sol)
        if sol.status == INFEASIBLE:
            continue
        if sol.status != OPTIMAL:
            certified = False
            if sol.values is None:
                continue
        x = _decode_point(sol.values, mu, search.reps)
        row = x[None, :]
        ok = (predict_classes(e, w0, row)[0] == c
              and predict_classes(e, w, row)[0] == c2)
        if ok and search.score is not None:
            ok = search.score.score(e, x) <= search.tau + 1e-9
        if not ok:
            certified = False  # margin slip: cannot certify this pass
            continue
        found.append(Counterexample(
            x=tuple(float(v) for v in x), original_class=c,
            pruned_class=c2))
    return OracleResult(certified=certified, found=found,
                        pair_solutions=solutions)


def _dump_pair(dump_dir: str, c: int, c2: int, model: MilpModel,
               sol: MilpSolution) -> None:
    import json

    os.makedirs(dump_dir, exist_ok=True)
    base = os.path.join(dump_dir, f"pair_{c}_{c2}")
    with open(base + ".lp", "w", encoding="utf-8") as fh:
        fh.write(export_lp(model))
    with open(base + ".sol.json", "w", encoding="utf-8") as fh:
        json.dump(sol.to_json(), fh)

