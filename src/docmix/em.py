"""EM fitting with floor-constrained M-steps and component annihilation.

The fitting entry point is robust_em: launch several short EM runs from
random starts, keep the best, then continue it with full EM while
annihilating weak components. Short starts and long runs are the same
loop, each iteration one M-step and one E-step, and the E-step scores
the corpus once; a short start runs exactly short_iters iterations, a
long run (run_em) stops at the relative stall rel_tol or max_iters.

The loop advances a block of models in lockstep: their parameters are
stacked into one (sum of K) x B array, so an iteration is one sparse
scoring product, one log-sum-exp per distinct K (over slices of
documents, to bound its sorted copy), one X.T @ resp and one water-fill
over all rows, whatever the number of models. The block stops as one,
after max_iters iterations or once every model has stalled; no model
leaves it early. Short starts pass rel_tol 0, so each runs exactly
short_iters iterations, and run_em is the block of one, so both stop
where a model run alone would. A rung's short starts run as a few such
blocks: at least one per thread, and more when one (L, S*K) array of
all S starts would exceed _BLOCK_BYTES, so memory stays flat as L, K or
S grow. Every kernel gives each model of a block exactly the values it
gets alone, so neither the thread count nor the grouping changes any
result. A group that fails reruns its starts one by one, so the error a
rung raises is always that of its lowest failing seed, at that start's
own iteration.

Two annihilation rules exist:

- "threshold" (default): between EM runs, delete every component whose
  weight drops below 1/(annihilation_divisor * k_current), renormalize,
  and resume from the survivors. The loop ends when a converged run
  leaves no component under the threshold.
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
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import Corpus, atomic_write_text
from .errors import (
    ConfigError,
    DegenerateFitError,
    DocmixError,
    InfeasibleFloorError,
    NumericalError,
)
from .mixture import (  # score_matrix is also reached as docmix.em.score_matrix
    MixtureModel,
    _log_sum_exp,
    _scores,
    _validate_block,
    default_floor,
    dumps_model,
    score_matrix,
)


ANNIHILATION_RULES = ("threshold", "mml")


@dataclass(frozen=True)
class EmConfig:
    n_starts: int = 15
    short_iters: int = 10
    max_iters: int = 500
    rel_tol: float = 1e-6
    annihilation_divisor: float = 100.0
    rng_seed: int = 0
    init_noise_scale: float = 1.0
    annihilation: str = "threshold"

    def __post_init__(self):
        if self.n_starts < 1:
            raise ConfigError("must be >= 1", field="n_starts")
        if self.short_iters < 1:
            raise ConfigError("must be >= 1", field="short_iters")
        if self.max_iters < 1:
            raise ConfigError("must be >= 1", field="max_iters")
        if not self.rel_tol > 0:
            raise ConfigError("must be > 0", field="rel_tol")
        if not self.annihilation_divisor > 1:
            raise ConfigError("must be > 1", field="annihilation_divisor")
        if not self.init_noise_scale >= 0:
            raise ConfigError("must be >= 0", field="init_noise_scale")
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
    k_initial: int
    k_final: int
    annihilation_events: list[tuple[int, list[int]]]
    seed: int | None
    converged: bool
    eta_effective: float

    def __post_init__(self):
        if self.k_final > self.k_initial:
            raise ValueError("k_final cannot exceed k_initial")


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
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    rows, num = w.shape
    if not 0 < epsilon:
        raise ValueError(f"floor must be positive, got {epsilon}")
    if num * epsilon > 1.0:
        raise InfeasibleFloorError(
            f"floor {epsilon} infeasible for {num} categories ({num}*{epsilon} > 1)"
        )
    peak = w.max(axis=1)
    if not np.all(peak > 0):
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
    if not np.all(consistent[at, pinned]):
        raise NumericalError(f"no consistent water level for floor {epsilon}")
    return np.maximum(epsilon, w * (denom[pinned] / suffix[at, pinned])[:, None])


# Bytes of the sorted copy the E-step makes of one slice of documents.
_SORT_BYTES = 1 << 18

# A block stacks S models: weights pi (N,) and log densities log_f (N, B),
# model after model, N the sum of their component counts. ``runs`` lists
# (K, count) for each stretch of consecutive models with K components.
# Every kernel below treats each model as if it were alone: the sparse
# products are column-independent, and each model's reductions run over
# its own contiguous row, so a block gives each model's values bit for bit.


def _runs(sizes) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    for k in sizes:
        if runs and runs[-1][0] == k:
            runs[-1] = (k, runs[-1][1] + 1)
        else:
            runs.append((k, 1))
    return runs


def _e_step_block(counts, pi: np.ndarray, log_f: np.ndarray,
                  runs) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (L, N) and each model's log-likelihood, from one
    scoring pass; the score buffer becomes the responsibilities in place."""
    scores = _scores(counts, pi, log_f)
    num_docs = scores.shape[0]
    # one row per model, so each log-likelihood is a pairwise row sum
    log_density = np.empty((sum(n for _, n in runs), num_docs))
    col = row = 0
    for k, n in runs:
        view = scores[:, col:col + n * k].reshape(num_docs, n, k)
        # a few documents at a time, so the sorted copy stays small
        step = max(1, _SORT_BYTES // (8 * n * k))
        for top in range(0, num_docs, step):
            part = view[top:top + step]
            dens = _log_sum_exp(part)
            part -= dens[:, :, None]
            np.exp(part, out=part)
            log_density[row:row + n, top:top + step] = dens.T
        col, row = col + n * k, row + n
    return scores, np.add.reduce(log_density, axis=1)


def _m_step_block(counts, resp: np.ndarray, runs, epsilon: float,
                  weight_offset: float) -> tuple[np.ndarray, np.ndarray]:
    """m_step for every model of a block: weights (N,), log densities (N, B)."""
    num_words = counts.shape[1]
    col_mass = resp.sum(axis=0)
    if weight_offset:
        col_mass = np.maximum(col_mass - weight_offset, 0.0)
    pi = np.empty_like(col_mass)
    col = 0
    for k, n in runs:
        mass = col_mass[col:col + n * k].reshape(n, k)
        if weight_offset and not np.all(mass.any(axis=1)):
            raise DegenerateFitError(
                f"every component's responsibility mass is at most "
                f"N/2 = {weight_offset}"
            )
        pi[col:col + n * k] = (mass / mass.sum(axis=1)[:, None]).ravel()
        col += n * k
    weighted_counts = counts.T.dot(resp)
    live = col_mass > 0
    pi[~live] = 0.0
    log_f = np.full((resp.shape[1], num_words), -np.log(num_words))
    log_f[live] = np.log(_water_fill_rows(weighted_counts.T[live], epsilon))
    return pi, log_f


def _validate_runs(pi: np.ndarray, log_f: np.ndarray, runs, epsilon: float) -> None:
    col = 0
    for k, n in runs:
        _validate_block(pi[col:col + n * k].reshape(n, k), log_f[col:col + n * k],
                        epsilon)
        col += n * k


def e_step(corpus: Corpus, model: MixtureModel) -> tuple[np.ndarray, float]:
    """Posterior responsibilities and total log-likelihood, from one scoring pass."""
    resp, loglik = _e_step_block(corpus.csr(), model.pi, model.log_f,
                                 [(model.num_components, 1)])
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
    pi, log_f = _m_step_block(corpus.csr(), resp, [(resp.shape[1], 1)], epsilon,
                              weight_offset)
    return MixtureModel(pi=pi, log_f=log_f, epsilon=epsilon)


def _objective(loglik: float, pi: np.ndarray, weight_offset: float) -> float:
    """What the EM loop ascends: the log-likelihood, minus
    weight_offset * sum_k log pi_k over the live components under MML."""
    if not weight_offset:
        return loglik
    pi = pi[pi > 0]
    return loglik - weight_offset * float(np.log(pi).sum())


def _em_loop(corpus: Corpus, pi: np.ndarray, log_f: np.ndarray, epsilon: float,
             seeds: list, max_iters: int, rel_tol: float,
             weight_offset: float = 0.0) -> list[FitResult]:
    """E and M steps for S models in lockstep; one FitResult per model, in
    input order.

    The block holds weights ``pi`` (S, K) and log densities ``log_f``
    (S*K, B); model s starts from rows s*K .. s*K + K - 1 and is recorded
    with ``seeds[s]``. The block stops as one: after max_iters M-steps, or
    once every model's relative stall is below rel_tol. Each model's trace
    begins with the one it runs alone; a model that stalls before the
    others keeps iterating until the block stops. With a positive
    weight_offset (the MML rule) every component whose weight the M-step
    set to 0 is removed at once and recorded as (index of the first trace
    value computed without it, its indices).
    """
    counts = corpus.csr()
    num_models, num_comps = pi.shape
    pi = pi.ravel()
    sizes = [num_comps] * num_models
    traces: list[list[float]] = [[] for _ in range(num_models)]
    events: list[list[tuple[int, list[int]]]] = [[] for _ in range(num_models)]
    objective = [0.0] * num_models
    eta = [float("inf")] * num_models
    runs = _runs(sizes)
    resp, loglik = _e_step_block(counts, pi, log_f, runs)
    for iteration in range(max_iters + 1):
        if iteration:
            pi, log_f = _m_step_block(counts, resp, runs, epsilon, weight_offset)
            if weight_offset:
                pi, log_f, sizes = _drop_dead(sizes, events, iteration, pi, log_f)
                runs = _runs(sizes)
            _validate_runs(pi, log_f, runs, epsilon)
            resp, loglik = _e_step_block(counts, pi, log_f, runs)
        bad = ~np.isfinite(loglik)
        if bad.any():
            raise NumericalError(f"non-finite log-likelihood {loglik[bad][0]}",
                                 iteration=iteration)
        col = 0
        for s, value in enumerate(loglik.tolist()):
            traces[s].append(value)
            new_objective = _objective(value, pi[col:col + sizes[s]], weight_offset)
            col += sizes[s]
            if iteration:
                eta[s] = abs(new_objective - objective[s]) / max(abs(objective[s]), 1.0)
            objective[s] = new_objective
        if iteration == max_iters or max(eta) < rel_tol:
            break
    fits, col = [], 0
    for s, k in enumerate(sizes):
        comps = slice(col, col + k)
        col = comps.stop
        fits.append(FitResult(
            model=MixtureModel(pi=pi[comps].copy(), log_f=log_f[comps].copy(),
                               epsilon=epsilon),
            loglik_trace=traces[s],
            k_initial=num_comps,
            k_final=k,
            annihilation_events=events[s],
            seed=seeds[s],
            converged=eta[s] < rel_tol,
            eta_effective=eta[s],
        ))
    return fits


def _drop_dead(sizes, events, at, pi, log_f):
    """Remove every zero-weight component from the block after an MML
    M-step, renormalize the survivors' weights of each model that lost
    one, and record its event at trace index ``at``; returns the new sizes."""
    dead = pi == 0
    if not dead.any():
        return pi, log_f, sizes
    pi, log_f = pi[~dead], log_f[~dead]
    kept, old, col = [], 0, 0
    for s, k in enumerate(sizes):
        gone = np.flatnonzero(dead[old:old + k])
        old, k = old + k, k - gone.size
        if gone.size:
            events[s].append((at, gone.tolist()))
            pi[col:col + k] /= pi[col:col + k].sum()
        kept.append(k)
        col += k
    return pi, log_f, kept


def run_em(corpus: Corpus, init: MixtureModel, config: EmConfig,
           seed: int | None = None) -> FitResult:
    """Alternate E and M steps from ``init`` until relative stall or max_iters.

    Under ``config.annihilation == "mml"`` the M-step uses the MML weight
    update and the fit records the components it annihilated.
    """
    [fit] = _em_loop(corpus, init.pi[None], init.log_f, init.epsilon, [seed],
                     config.max_iters, config.rel_tol,
                     config.weight_offset(corpus.num_words))
    return fit


def _random_init_block(corpus: Corpus, num_comps: int, seeds, epsilon: float,
                       noise_scale: float) -> tuple[np.ndarray, np.ndarray]:
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
    log_f = np.log(_water_fill_rows(empirical * np.exp(noise_scale * noise), epsilon))
    _validate_block(pi, log_f, epsilon)
    return pi, log_f


def random_init(corpus: Corpus, num_comps: int, seed, epsilon: float,
                noise_scale: float = 1.0) -> MixtureModel:
    """Random start: uniform-simplex weights, empirical word law times
    lognormal noise per component, then water-filled to the floor."""
    pi, log_f = _random_init_block(corpus, num_comps, [seed], epsilon, noise_scale)
    return MixtureModel(pi=pi[0], log_f=log_f, epsilon=epsilon)


def _annihilate(model: MixtureModel, divisor: float) -> tuple[MixtureModel, list[int]]:
    """Delete every component whose weight is below 1/(divisor * K) and
    renormalize the rest; returns the model and the deleted indices."""
    below = model.pi < 1.0 / (divisor * model.num_components)
    if not below.any():
        return model, []
    if below.all():
        raise DegenerateFitError("annihilation removed every component")
    pi = model.pi[~below]
    return (MixtureModel(pi=pi / pi.sum(), log_f=model.log_f[~below], epsilon=model.epsilon),
            np.flatnonzero(below).tolist())


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


MAX_ANNIHILATION_ROUNDS = 1000

# Bytes of one (L, S*K) array above which a rung's starts split into more
# lockstep groups than threads, so that the block's arrays stay this small.
_BLOCK_BYTES = 2 << 20


def robust_em(corpus: Corpus, k_max: int, config: EmConfig,
              epsilon: float | None = None, threads: int = 1) -> FitResult:
    """Multi-start EM at k_max components with annihilation of weak ones.

    Runs config.n_starts short fits (seeds rng_seed + i) and continues
    the best one with full EM. Under the default "threshold" rule the
    best start has the highest log-likelihood, and between runs all
    components whose weight sits below 1/(annihilation_divisor * k_current)
    are removed in one sweep; the fit stops once a converged run has no
    component under the threshold. Under the "mml" rule every M-step,
    short starts included, uses the MML weight update and drops the
    components it zeroes; the best start has the shortest message length.
    Each annihilation_events entry is (trace index of the first value
    computed after the removal, removed component indices at that moment).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if epsilon is None:
        epsilon = default_floor(corpus.total_tokens)
    if corpus.num_words * epsilon > 1.0:
        raise InfeasibleFloorError(
            f"floor {epsilon} infeasible for {corpus.num_words} categories"
        )

    weight_offset = config.weight_offset(corpus.num_words)

    def run_group(seeds: list[int]) -> list[FitResult]:
        # A fixed number of iterations: rel_tol 0 never stops a start early,
        # not even one that stalls at eta == 0.
        try:
            pi, log_f = _random_init_block(corpus, k_max, seeds, epsilon,
                                           config.init_noise_scale)
            return _em_loop(corpus, pi, log_f, epsilon, seeds, config.short_iters,
                            0.0, weight_offset)
        except (DocmixError, ValueError):
            if len(seeds) == 1:
                raise
            # A block fails at the earliest iteration any start fails. Rerun
            # its starts alone, so the error raised is the lowest seed's,
            # whatever the grouping.
            return [fit for seed in seeds for fit in run_group([seed])]

    def score(fit: FitResult) -> float:
        if config.annihilation == "mml":
            return -message_length(fit.loglik_trace[-1], fit.model.pi,
                                   corpus.num_docs, 2 * weight_offset)
        return fit.loglik_trace[-1]

    num_starts = config.n_starts
    block_bytes = 8 * corpus.num_docs * k_max * num_starts
    num_groups = min(num_starts, max(threads, -(-block_bytes // _BLOCK_BYTES)))
    groups = [[config.rng_seed + i for i in chunk.tolist()]
              for chunk in np.array_split(np.arange(num_starts), num_groups)]
    if threads > 1 and num_groups > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            starts = [fit for fits in pool.map(run_group, groups) for fit in fits]
    else:
        starts = [fit for seeds in groups for fit in run_group(seeds)]
    best = max(range(config.n_starts), key=lambda i: (score(starts[i]), -i))

    model = starts[best].model
    trace = list(starts[best].loglik_trace)
    events = list(starts[best].annihilation_events)
    fresh_model = False
    converged = False
    eta = starts[best].eta_effective
    # Sweep first, EM second: the threshold is checked on the multistart
    # winner before any long run, then after every converged run, so weak
    # components are culled before they can settle onto a few documents.
    # The MML rule annihilates inside the EM runs instead.
    for _ in range(MAX_ANNIHILATION_ROUNDS):
        removed = []
        if config.annihilation == "threshold":
            model, removed = _annihilate(model, config.annihilation_divisor)
        if removed:
            events.append((len(trace), removed))
            fresh_model = True
        elif converged:
            break
        fit = run_em(corpus, model, config)
        # a run continuing the same model repeats its first value, which
        # is dropped; its own event indices shift with it
        start = len(trace) if fresh_model else len(trace) - 1
        events.extend((start + i, gone) for i, gone in fit.annihilation_events)
        trace.extend(fit.loglik_trace if fresh_model else fit.loglik_trace[1:])
        model, converged, eta = fit.model, fit.converged, fit.eta_effective
        fresh_model = False
    else:
        raise NumericalError(
            f"annihilation failed to settle within {MAX_ANNIHILATION_ROUNDS} rounds"
        )

    return FitResult(
        model=model,
        loglik_trace=trace,
        k_initial=k_max,
        k_final=model.num_components,
        annihilation_events=events,
        seed=config.rng_seed,
        converged=converged,
        eta_effective=eta,
    )


def _config_record(config: EmConfig) -> dict:
    """asdict(config) without the annihilation field when it holds the
    default rule, so run logs of default fits stay byte-identical to those
    written by versions that had no such field."""
    record = asdict(config)
    if record["annihilation"] == "threshold":
        del record["annihilation"]
    return record


def dumps_run_log(fit: FitResult, config: EmConfig | None = None) -> str:
    payload = {
        "format": "docmix.runlog",
        "version": 1,
        "k_initial": fit.k_initial,
        "k_final": fit.k_final,
        "seed": fit.seed,
        "converged": fit.converged,
        "eta_effective": fit.eta_effective,
        "annihilation_events": [[i, list(removed)] for i, removed in fit.annihilation_events],
        "loglik_trace": fit.loglik_trace,
        "config": _config_record(config) if config is not None else None,
    }
    return json.dumps(payload, separators=(",", ":"))


def save_fit(fit: FitResult, model_path: str | os.PathLike,
             log_path: str | os.PathLike, config: EmConfig | None = None) -> None:
    atomic_write_text(model_path, dumps_model(fit.model))
    atomic_write_text(log_path, dumps_run_log(fit, config))
