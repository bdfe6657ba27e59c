"""EM fitting with floor-constrained M-steps and component annihilation.

The fitting entry point is robust_em, one rung in two phases: the short
phase (_short_phase) runs several short EMs from random starts, and the
long phase (_long_phase) continues the best with full EM, deleting weak
components between runs. Every run is one loop, _em_loop, each
iteration one M-step and one E-step that scores the corpus once; a
short start runs exactly _SHORT_ITERS iterations, a long run stops at
the relative stall _REL_TOL or after _MAX_ITERS.

The loop advances a block of S models of one size K in lockstep: their
parameters are stacked into one (S*K) x B array, so an iteration is one
sparse scoring product, one log-sum-exp (over slices of documents, to
bound its sorted copy), one X.T @ resp and one water-fill over all rows,
whatever the number of models. The block stops as one, after max_iters
iterations or once every model has stalled; no model leaves it early.
Short starts pass rel_tol 0, so each runs exactly _SHORT_ITERS
iterations, and run_em is the block of one, so both stop where a model
run alone would. The loop returns raw runs; _fit_result builds a
FitResult only for run_em's run, a rung's best short start and its final
fit. Under the threshold rule a rung's short starts run as one such
block, or as more when one (L, S*K) array of all S starts would exceed
_BLOCK_BYTES, so memory stays flat as L, K or S grow; threads run the
blocks at once. Under the MML rule K shrinks inside the loop, so
each start runs alone. Every kernel gives each model of a block exactly
the values it gets alone, so neither the thread count nor the grouping
changes any result. A rung whose starts fail raises the error of its
first failing group, in seed order; the grouping depends on the corpus,
K and the start count alone, so that error does not depend on threads.

The kernels keep off two underflow slow paths, with results bit for
bit those of the plain kernels. On long documents the posteriors are
nearly one-hot, so most shifted scores lie far below -745, where np.exp
reaches +0.0 through a slow path; both E-step exps skip those inputs
(mixture._exp_in_place). And the few subnormal responsibilities would
slow every multiply of X.T @ resp that reads them, so the M-step scales
them by 2**64 first (_m_step_block).

Two annihilation rules exist:

- "threshold" (default): before and after each long run, _long_phase
  deletes every component of weight below 1/(_ANNIHILATION_DIVISOR * K)
  and runs EM afresh from the renormalized survivors, until a run stops
  with none to delete.
- "mml": the minimum-message-length weight update of Figueiredo & Jain
  (2002, IEEE TPAMI 24(3), eq. 17) inside every M-step,
  pi_k proportional to max(0, n_k - N/2), where n_k is the component's
  responsibility mass and N = B - 1 the free parameters of one density.
  A component is deleted as soon as its weight reaches 0, and starts
  are ranked by message length (their eq. 15) instead of log-likelihood.

The M-step under the density floor is solved exactly: maximizing
sum_b w_b log f_b over the simplex with f_b >= eps has the water-fill
form f_b = max(eps, w_b / lam), and the correct lam is found by a
single pass over the sorted weights. Exactness keeps the per-step
log-likelihood monotone, which the trace invariant checks. Under the
MML rule the monotone quantity is the objective the loop ascends,
loglik - (N/2) sum_k log pi_k, between annihilation events; the
log-likelihood itself can fall, and the loop stops when the objective
stalls.

The EM schedule (_SHORT_ITERS, _MAX_ITERS, _REL_TOL), the start noise
(_INIT_NOISE_SCALE) and the divisor are constants: no flag or config
field sets them. A fit's run log (dumps_run_log) still records all five.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, dumps_document
from .errors import (
    ConfigError,
    DegenerateFitError,
    InfeasibleFloorError,
    NumericalError,
)
from .mixture import (  # score_matrix is also reached as docmix.em.score_matrix
    MixtureModel,
    _exp_in_place,
    _log_sum_exp,
    _scores,
    _validate_block,
    default_floor,
    score_matrix,
)


ANNIHILATION_RULES = ("threshold", "mml")

# The EM schedule: a short start runs _SHORT_ITERS iterations, and a long
# run stops after _MAX_ITERS M-steps or once its relative stall is below _REL_TOL.
_SHORT_ITERS = 10
_MAX_ITERS = 500
_REL_TOL = 1e-6


def _is_integer(value) -> bool:
    """An int or a numpy integer, but no bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class EmConfig:
    n_starts: int = 15
    rng_seed: int = 0
    annihilation: str = "threshold"

    def __post_init__(self):
        for name in ("n_starts", "rng_seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"must be an integer, got {value!r}", field=name)
            object.__setattr__(self, name, int(value))
        if self.n_starts < 1:
            raise ConfigError("must be >= 1", field="n_starts")
        if self.rng_seed < 0:
            raise ConfigError("must be >= 0", field="rng_seed")
        if self.annihilation not in ANNIHILATION_RULES:
            raise ConfigError(f"must be one of {', '.join(ANNIHILATION_RULES)}",
                              field="annihilation")

    def weight_offset(self, num_words: int) -> float:
        """Mass subtracted from each n_k in the weight update: N/2 under
        the MML rule, with N = num_words - 1; 0 (plain EM) otherwise."""
        return (num_words - 1) / 2 if self.annihilation == "mml" else 0.0


@dataclass
class FitResult:
    model: MixtureModel
    loglik_trace: list[float]
    annihilation_events: list[tuple[int, list[int]]]
    seed: int | None
    converged: bool
    eta_effective: float

    @property
    def k_final(self) -> int:
        return self.model.num_components

    @property
    def k_initial(self) -> int:
        """k_final plus every component the annihilation events removed."""
        return self.k_final + sum(len(gone) for _, gone in self.annihilation_events)


def water_fill_project(weights, epsilon: float) -> np.ndarray:
    """Maximize sum w_b log f_b over the simplex with every f_b >= epsilon.

    KKT form: f_b = max(epsilon, w_b / lam). Scanning candidate pinned
    counts over the ascending-sorted weights finds the unique lam; the
    comparisons are kept multiplicative so zero weights never divide.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    return _water_fill_rows(w[None], epsilon)[0]


def _water_fill_rows(weights, epsilon: float) -> np.ndarray:
    """water_fill_project of every row of a nonempty 2-D array at once."""
    # C order first: the row sums below must reduce each row pairwise, as
    # a 1-D sum does; over an F-ordered array they run sequentially.
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    rows, num = w.shape
    if not 0 < epsilon:
        raise ValueError(f"floor must be positive, got {epsilon}")
    if num * epsilon > 1.0:
        raise InfeasibleFloorError(
            f"floor {epsilon} infeasible for {num} categories ({num}*{epsilon} > 1)"
        )
    peak = w.max(axis=1)
    if not np.isfinite(peak).all():
        raise ValueError("weights must be finite")
    if not (peak > 0).all():
        raise ValueError("weights must have positive total")
    # normalize in two steps (max first, then sum) so neither subnormal nor
    # huge inputs can underflow the floor comparisons or overflow the sums
    w = w / peak[:, None]
    w = w / w.sum(axis=1)[:, None]

    ws = np.sort(w, axis=1)
    # suffix[p] = mass left to the free coordinates when the p smallest pin.
    # The smallest pin count whose lightest free coordinate clears the floor
    # is the KKT-consistent one; the comparison stays multiplicative so zero
    # weights never divide.
    suffix = np.cumsum(ws[:, ::-1], axis=1)[:, ::-1]
    denom = 1.0 - np.arange(num) * epsilon
    consistent = ws * denom >= suffix * epsilon
    pinned = consistent.argmax(axis=1)
    at = np.arange(rows)
    # Unreachable: the last candidate pins all but the heaviest coordinate,
    # and a positive-total weight vector always clears the floor there.
    if not consistent[at, pinned].all():
        raise NumericalError(f"no consistent water level for floor {epsilon}")
    return np.maximum(epsilon, w * (denom[pinned] / suffix[at, pinned])[:, None])


# Bytes of the sorted copy the E-step makes of one slice of documents.
_SORT_BYTES = 1 << 18

# The M-step's product runs on responsibilities times this power of two.
_RESP_SCALE = 2.0 ** 64

# A block stacks S models of K components each: weights pi (S*K,) and
# log densities log_f (S*K, B), model s owning rows s*K .. s*K + K - 1.
# Every kernel below treats each model as if it were alone: the sparse
# products are column-independent, and each model's reductions run over
# its own contiguous row, so a block gives each model's values bit for bit.


def _e_step_block(counts, pi: np.ndarray, log_f: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (L, S*K) and each model's log-likelihood, from one
    scoring pass; the score buffer becomes the responsibilities in place."""
    scores = _scores(counts, pi, log_f)
    num_docs, width = scores.shape
    view = scores.reshape(num_docs, width // k, k)
    # one row per model, so each log-likelihood is a pairwise row sum
    log_density = np.empty((width // k, num_docs))
    # a few documents at a time, so the sorted copy stays small
    step = max(1, _SORT_BYTES // (8 * width))
    for top in range(0, num_docs, step):
        part = view[top:top + step]
        dens = _log_sum_exp(part)
        part -= dens[:, :, None]
        _exp_in_place(part)
        log_density[:, top:top + step] = dens.T
    return scores, np.add.reduce(log_density, axis=1)


def _m_step_block(counts_t, resp: np.ndarray, k: int, epsilon: float,
                  weight_offset: float) -> tuple[np.ndarray, np.ndarray]:
    """m_step for every model of a block: weights (S*K,), log densities
    (S*K, B), from the transposed count matrix ``counts_t`` (B, L).
    Overwrites ``resp``.

    Nearly one-hot posteriors leave some responsibilities subnormal, and
    a multiply with a subnormal operand takes the CPU's slow path, in
    X.T @ resp once per nonzero of the document's row. So the product
    runs on resp * 2**64, where none is subnormal, and is scaled back.
    That is exact: counts are whole numbers and resp >= 0, so every
    product and partial sum is exactly 2**64 times the unscaled one.
    Each is either normal, rounded at the same relative precision, or a
    multiple of 2**-1074 below 2**-1022, which is an exact subnormal
    unscaled.
    """
    num_words = counts_t.shape[0]
    col_mass = resp.sum(axis=0)
    if weight_offset:
        col_mass = np.maximum(col_mass - weight_offset, 0.0)
    mass = col_mass.reshape(-1, k)
    if weight_offset and not mass.any(axis=1).all():
        raise DegenerateFitError(
            f"every component's responsibility mass is at most "
            f"N/2 = {weight_offset}"
        )
    pi = (mass / mass.sum(axis=1)[:, None]).ravel()
    resp *= _RESP_SCALE
    weighted_counts = counts_t.dot(resp)
    weighted_counts *= 1 / _RESP_SCALE
    live = col_mass > 0
    log_f = np.full((resp.shape[1], num_words), -np.log(num_words))
    log_f[live] = np.log(_water_fill_rows(weighted_counts.T[live], epsilon))
    return pi, log_f


def e_step(corpus: Corpus, model: MixtureModel) -> tuple[np.ndarray, float]:
    """Posterior responsibilities and total log-likelihood, from one scoring pass."""
    resp, loglik = _e_step_block(corpus.csr(), model.pi, model.log_f,
                                 model.num_components)
    return resp, float(loglik[0])


def m_step(corpus: Corpus, resp: np.ndarray, epsilon: float,
           weight_offset: float = 0.0) -> MixtureModel:
    """Exact constrained maximizer given responsibilities.

    Weights are pi_k proportional to max(0, n_k - weight_offset) for
    responsibility masses n_k; the default offset 0 is the plain EM
    update, N/2 the MML update, which maximizes the expected complete
    log-likelihood minus (N/2) sum_k log pi_k. A component with no mass
    gets weight 0 and the uniform density.
    """
    resp = np.array(resp, dtype=np.float64)  # a copy: the kernel scales it in place
    pi, log_f = _m_step_block(corpus.csr().T, resp, resp.shape[1], epsilon,
                              weight_offset)
    return MixtureModel(pi=pi, log_f=log_f, epsilon=epsilon)


def _objective(loglik: float, pi: np.ndarray, weight_offset: float) -> float:
    """What the EM loop ascends: the log-likelihood, minus
    weight_offset * sum_k log pi_k over the live components under MML."""
    if not weight_offset:
        return loglik
    pi = pi[pi > 0]
    return loglik - weight_offset * float(np.log(pi).sum())


class _Run(NamedTuple):
    """One model's run of _em_loop: last weights (K,) and log densities (K, B),
    views into the block, trace, annihilation events and last relative stall."""
    pi: np.ndarray
    log_f: np.ndarray
    trace: list[float]
    events: list[tuple[int, list[int]]]
    eta: float


def _em_loop(corpus: Corpus, pi: np.ndarray, log_f: np.ndarray, epsilon: float,
             max_iters: int, rel_tol: float, weight_offset: float = 0.0) -> list[_Run]:
    """E and M steps for S models in lockstep; one _Run per model, in
    input order.

    The block holds weights ``pi`` (S, K) and log densities ``log_f``
    (S*K, B); model s starts from rows s*K .. s*K + K - 1. The block
    stops as one: after max_iters M-steps, or once every model's relative
    stall is below rel_tol. Each model's trace begins with the one it
    runs alone; a model that stalls before the others keeps iterating
    until the block stops. Every M-step's weights and densities pass
    _validate_block before they are scored.

    A positive weight_offset (MML) takes a block of one model and removes
    the components the M-step set to 0, each removal recorded as (index
    of the first value computed without them, indices).
    """
    counts = corpus.csr()
    counts_t = counts.T  # once: each .T builds and checks a new csc_matrix
    num_models, k = pi.shape
    if weight_offset and num_models > 1:
        raise ValueError(f"weight_offset takes one model, got {num_models}")
    pi = pi.ravel()
    traces: list[list[float]] = [[] for _ in range(num_models)]
    events: list[tuple[int, list[int]]] = []
    objective = [0.0] * num_models
    eta = [float("inf")] * num_models
    resp, loglik = _e_step_block(counts, pi, log_f, k)
    iteration = 0
    while True:
        bad = ~np.isfinite(loglik)
        if bad.any():
            raise NumericalError(f"non-finite log-likelihood {loglik[bad][0]}",
                                 iteration=iteration)
        for s, value in enumerate(loglik.tolist()):
            traces[s].append(value)
            new_objective = _objective(value, pi[s * k:(s + 1) * k], weight_offset)
            if iteration:
                eta[s] = abs(new_objective - objective[s]) / max(abs(objective[s]), 1.0)
            objective[s] = new_objective
        if iteration == max_iters or max(eta) < rel_tol:
            break
        iteration += 1
        pi, log_f = _m_step_block(counts_t, resp, k, epsilon, weight_offset)
        if weight_offset and not pi.all():
            live = pi != 0
            events.append((len(traces[0]), np.flatnonzero(~live).tolist()))
            pi, log_f = pi[live], log_f[live]
            pi /= pi.sum()
            k = pi.size
        _validate_block(pi.reshape(num_models, k), log_f, epsilon)
        resp, loglik = _e_step_block(counts, pi, log_f, k)
    return [_Run(pi[s * k:(s + 1) * k], log_f[s * k:(s + 1) * k], traces[s],
                 list(events), eta[s]) for s in range(num_models)]


def _fit_result(run: _Run, epsilon: float, seed: int | None, rel_tol: float) -> FitResult:
    """The FitResult of a run of _em_loop, its model validated on construction."""
    model = MixtureModel(pi=run.pi, log_f=run.log_f, epsilon=epsilon)
    return FitResult(model, run.trace, run.events, seed, run.eta < rel_tol, run.eta)


def run_em(corpus: Corpus, init: MixtureModel, config: EmConfig,
           seed: int | None = None) -> FitResult:
    """Alternate E and M steps from ``init`` until relative stall or _MAX_ITERS.

    Under ``config.annihilation == "mml"`` the M-step uses the MML weight
    update and the fit records the components it annihilated.
    """
    [run] = _em_loop(corpus, init.pi[None], init.log_f, init.epsilon, _MAX_ITERS,
                     _REL_TOL, config.weight_offset(corpus.num_words))
    return _fit_result(run, init.epsilon, seed, _REL_TOL)


# Lognormal sigma of the noise that tilts each random start's densities.
_INIT_NOISE_SCALE = 1.0


def _random_init_block(corpus: Corpus, num_comps: int, seeds,
                       epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """random_init for each seed, as a block: weights (S, K), log densities (S*K, B)."""
    num_words = corpus.num_words
    empirical = corpus.word_totals() / corpus.total_tokens
    pi = np.empty((len(seeds), num_comps))
    noise = np.empty((len(seeds) * num_comps, num_words))
    for s, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        draws = rng.exponential(size=num_comps)
        pi[s] = draws / draws.sum()
        noise[s * num_comps:(s + 1) * num_comps] = rng.standard_normal((num_comps, num_words))
    log_f = np.log(_water_fill_rows(empirical * np.exp(_INIT_NOISE_SCALE * noise), epsilon))
    _validate_block(pi, log_f, epsilon)
    return pi, log_f


def random_init(corpus: Corpus, num_comps: int, seed, epsilon: float) -> MixtureModel:
    """Random start: uniform-simplex weights, empirical word law times
    lognormal noise of sigma _INIT_NOISE_SCALE per component, then
    water-filled to the floor."""
    pi, log_f = _random_init_block(corpus, num_comps, [seed], epsilon)
    return MixtureModel(pi=pi[0], log_f=log_f, epsilon=epsilon)


def message_length(loglik: float, pi, num_docs: int, num_params: int) -> float:
    """Figueiredo & Jain (2002) eq. 15 for a mixture with weights ``pi``.

    (N/2) sum_k log(n pi_k / 12) + (k/2) log(n / 12) + k (N + 1) / 2 - loglik
    over the k components with pi_k > 0, for n documents and N free
    parameters per component density.
    """
    pi = np.asarray(pi, dtype=np.float64)
    pi = pi[pi > 0]
    k = pi.size
    return (num_params / 2 * float(np.log(num_docs * pi / 12).sum())
            + k / 2 * math.log(num_docs / 12)
            + k * (num_params + 1) / 2
            - loglik)


# Bytes of one (L, S*K) array above which a rung's starts split into more
# than one lockstep group, so that the block's arrays stay this small.
_BLOCK_BYTES = 2 << 20


def robust_em(corpus: Corpus, k_max: int, config: EmConfig,
              threads: int = 1) -> FitResult:
    """Multi-start EM at k_max components with annihilation of weak ones.

    Runs config.n_starts short fits (seeds rng_seed + i) and continues the best,
    by log-likelihood or under "mml" by message length, ties to the lower seed,
    with _long_phase. Only the best start becomes a FitResult. Every fit uses the
    floor 1/n for n tokens, the one selection.penalty_rate assumes.
    Each annihilation_events entry is (trace index of the first value computed
    after the removal, removed component indices at that moment).
    """
    if not _is_integer(k_max) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    epsilon = default_floor(corpus.total_tokens)

    def score(run: _Run) -> float:
        if config.annihilation == "mml":
            return -message_length(run.trace[-1], run.pi, corpus.num_docs,
                                   2 * config.weight_offset(corpus.num_words))
        return run.trace[-1]

    runs = _short_phase(corpus, k_max, config, epsilon, threads)
    best = max(range(config.n_starts), key=lambda i: (score(runs[i]), -i))
    start = _fit_result(runs[best], epsilon, config.rng_seed + best, 0.0)
    return _long_phase(corpus, start, config)


def _short_phase(corpus: Corpus, k: int, config: EmConfig, epsilon: float,
                 threads: int) -> list[_Run]:
    """Every start of a rung (seeds rng_seed + i) run _SHORT_ITERS
    iterations, in lockstep groups under the threshold rule and alone
    under MML; one _Run per start, in seed order. The groups are as
    few as _BLOCK_BYTES allows; threads only size the pool that runs them.
    A failing group fails at the earliest iteration any of its starts
    fails, and the rung raises its first failing group's error, whatever
    the thread count."""
    weight_offset = config.weight_offset(corpus.num_words)

    def run_group(seeds: list[int]) -> list[_Run]:
        # A fixed number of iterations: rel_tol 0 never stops a start early,
        # not even one that stalls at eta == 0.
        pi, log_f = _random_init_block(corpus, k, seeds, epsilon)
        return _em_loop(corpus, pi, log_f, epsilon, _SHORT_ITERS, 0.0, weight_offset)

    num_starts = config.n_starts
    if weight_offset:
        num_groups = num_starts
    else:
        block_bytes = 8 * corpus.num_docs * k * num_starts
        num_groups = min(num_starts, -(-block_bytes // _BLOCK_BYTES))
    groups = [[config.rng_seed + i for i in chunk.tolist()]
              for chunk in np.array_split(np.arange(num_starts), num_groups)]
    if threads > 1 and num_groups > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [run for runs in pool.map(run_group, groups) for run in runs]
    return [run for seeds in groups for run in run_group(seeds)]


# The threshold rule deletes each component of weight below 1/(this * K).
_ANNIHILATION_DIVISOR = 100.0


def _long_phase(corpus: Corpus, start: FitResult, config: EmConfig) -> FitResult:
    """Continue ``start`` with full EM, deleting weak components between
    runs, as Figueiredo & Jain (2002, §V) do.

    Each pass tests start.model, then the weights the last run stopped at,
    against 1/(_ANNIHILATION_DIVISOR * K), or 0 under MML. Once a test
    removes nothing the last run is the fit, built once, with seed
    config.rng_seed. Otherwise the weak components go, the survivors are
    renormalized, and _em_loop runs afresh from them, so the cap of
    _MAX_ITERS M-steps counts from the last removal.
    The fit's trace and events are start's, then each run's.
    """
    divisor = _ANNIHILATION_DIVISOR if config.annihilation == "threshold" else math.inf
    trace, events = list(start.loglik_trace), list(start.annihilation_events)
    pi, log_f, epsilon = start.model.pi, start.model.log_f, start.model.epsilon
    skip = 1  # a run from start.model first rescores it, repeating trace[-1]
    run = None
    while True:
        weak = pi < 1.0 / (divisor * pi.size)
        if weak.any():
            events.append((len(trace), np.flatnonzero(weak).tolist()))
            pi, log_f, skip = pi[~weak], log_f[~weak], 0
            pi /= pi.sum()
            _validate_block(pi[None], log_f, epsilon)
        elif run is not None:
            return _fit_result(run._replace(trace=trace, events=events), epsilon,
                               config.rng_seed, _REL_TOL)
        [run] = _em_loop(corpus, pi[None], log_f, epsilon, _MAX_ITERS, _REL_TOL,
                         config.weight_offset(corpus.num_words))
        events += [(len(trace) + i - skip, gone) for i, gone in run.events]
        trace += run.trace[skip:]
        pi, log_f = run.pi, run.log_f


def dumps_run_log(fit: FitResult, config: EmConfig) -> str:
    # The constants keep their keys and positions in the record, and the
    # rule is named only when not the default, so run logs stay byte-stable.
    record = {"n_starts": config.n_starts, "short_iters": _SHORT_ITERS,
              "max_iters": _MAX_ITERS, "rel_tol": _REL_TOL,
              "annihilation_divisor": _ANNIHILATION_DIVISOR, "rng_seed": config.rng_seed,
              "init_noise_scale": _INIT_NOISE_SCALE}
    if config.annihilation != "threshold":
        record["annihilation"] = config.annihilation
    return dumps_document("runlog", {
        "k_initial": fit.k_initial,
        "k_final": fit.k_final,
        "seed": fit.seed,
        "converged": fit.converged,
        "eta_effective": fit.eta_effective,
        "annihilation_events": [[i, list(removed)] for i, removed in fit.annihilation_events],
        "loglik_trace": fit.loglik_trace,
        "config": record,
    })
