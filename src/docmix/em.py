"""EM fitting with floor-constrained M-steps and component annihilation.

The fitting entry point is robust_em: launch several short EM runs from
random starts, keep the best, then continue it with full EM while
annihilating weak components. Short starts and long runs are the same
loop, each iteration one M-step and one E-step, and the E-step scores
the corpus once; a short start runs exactly short_iters iterations, a
long run (run_em) stops at the relative stall rel_tol or max_iters. Two
annihilation rules exist:

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
    InfeasibleFloorError,
    NumericalError,
)
from .mixture import (
    MixtureModel,
    _log_densities_from_scores,
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
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    num = w.size
    if not 0 < epsilon:
        raise ValueError(f"floor must be positive, got {epsilon}")
    if num * epsilon > 1.0:
        raise InfeasibleFloorError(
            f"floor {epsilon} infeasible for {num} categories ({num}*{epsilon} > 1)"
        )
    peak = w.max()
    if not peak > 0:
        raise ValueError("weights must have positive total")
    # normalize in two steps (max first, then sum) so neither subnormal nor
    # huge inputs can underflow the floor comparisons or overflow the sums
    w = w / peak
    w = w / w.sum()

    ws = np.sort(w)
    # suffix[p] = mass left to the free coordinates when the p smallest pin.
    # The smallest pin count whose lightest free coordinate clears the floor
    # is the KKT-consistent one; the comparison stays multiplicative so zero
    # weights never divide.
    suffix = np.cumsum(ws[::-1])[::-1]
    for pinned in range(num):
        denom = 1.0 - pinned * epsilon
        if ws[pinned] * denom >= suffix[pinned] * epsilon:
            return np.maximum(epsilon, w * (denom / suffix[pinned]))
    # Unreachable: the last candidate pins all but the heaviest coordinate,
    # and a positive-total weight vector always clears the floor there.
    raise NumericalError(f"no consistent water level for floor {epsilon}")


def e_step(corpus: Corpus, model: MixtureModel) -> tuple[np.ndarray, float]:
    """Posterior responsibilities and total log-likelihood, from one scoring pass."""
    scores = score_matrix(corpus.csr(), model)
    log_density = _log_densities_from_scores(scores)
    resp = np.exp(scores - log_density[:, None])
    return resp, float(np.add.reduce(log_density))


def m_step(corpus: Corpus, resp: np.ndarray, epsilon: float,
           weight_offset: float = 0.0) -> MixtureModel:
    """Exact constrained maximizer given responsibilities.

    Weights are pi_k proportional to max(0, n_k - weight_offset) for
    responsibility masses n_k; the default offset 0 is the plain EM
    update, N/2 the MML update, which maximizes the expected complete
    log-likelihood minus (N/2) sum_k log pi_k.
    """
    num_docs, num_comps = resp.shape
    num_words = corpus.num_words
    col_mass = resp.sum(axis=0)
    if weight_offset:
        col_mass = np.maximum(col_mass - weight_offset, 0.0)
        if not col_mass.any():
            raise DegenerateFitError(
                f"every component's responsibility mass is at most "
                f"N/2 = {weight_offset}"
            )
    pi = col_mass / col_mass.sum()
    weighted_counts = corpus.csr().T.dot(resp)
    log_f = np.empty((num_comps, num_words))
    for k in range(num_comps):
        if col_mass[k] > 0:
            log_f[k] = np.log(water_fill_project(weighted_counts[:, k], epsilon))
        else:
            pi[k] = 0.0
            log_f[k] = -np.log(num_words)
    return MixtureModel(pi=pi, log_f=log_f, epsilon=epsilon)


def _objective(loglik: float, model: MixtureModel, weight_offset: float) -> float:
    """What the EM loop ascends: the log-likelihood, minus
    weight_offset * sum_k log pi_k over the live components under MML."""
    if not weight_offset:
        return loglik
    pi = model.pi[model.pi > 0]
    return loglik - weight_offset * float(np.log(pi).sum())


def _em_loop(corpus: Corpus, init: MixtureModel, max_iters: int, rel_tol: float,
             weight_offset: float = 0.0, seed: int | None = None) -> FitResult:
    """E and M steps from ``init`` until relative stall or max_iters.

    With a positive weight_offset (the MML rule) every component whose
    weight the M-step set to 0 is removed at once and recorded as
    (index of the first trace value computed without it, its indices).
    """
    model = init
    resp, loglik = e_step(corpus, model)
    if not np.isfinite(loglik):
        raise NumericalError(f"non-finite log-likelihood {loglik}", iteration=0)
    trace = [loglik]
    objective = _objective(loglik, model, weight_offset)
    events: list[tuple[int, list[int]]] = []
    converged = False
    eta = float("inf")
    for iteration in range(1, max_iters + 1):
        model = m_step(corpus, resp, model.epsilon, weight_offset)
        if weight_offset:
            removed = np.flatnonzero(model.pi == 0).tolist()
            if removed:
                model = _without(model, removed)
                events.append((len(trace), removed))
        resp, new_loglik = e_step(corpus, model)
        if not np.isfinite(new_loglik):
            raise NumericalError(
                f"non-finite log-likelihood {new_loglik}", iteration=iteration
            )
        trace.append(new_loglik)
        new_objective = _objective(new_loglik, model, weight_offset)
        eta = abs(new_objective - objective) / max(abs(objective), 1.0)
        objective = new_objective
        if eta < rel_tol:
            converged = True
            break
    return FitResult(
        model=model,
        loglik_trace=trace,
        k_initial=init.num_components,
        k_final=model.num_components,
        annihilation_events=events,
        seed=seed,
        converged=converged,
        eta_effective=eta,
    )


def run_em(corpus: Corpus, init: MixtureModel, config: EmConfig,
           seed: int | None = None) -> FitResult:
    """Alternate E and M steps from ``init`` until relative stall or max_iters.

    Under ``config.annihilation == "mml"`` the M-step uses the MML weight
    update and the fit records the components it annihilated.
    """
    return _em_loop(corpus, init, config.max_iters, config.rel_tol,
                    config.weight_offset(corpus.num_words), seed)


def random_init(corpus: Corpus, num_comps: int, seed, epsilon: float,
                noise_scale: float = 1.0) -> MixtureModel:
    """Random start: uniform-simplex weights, empirical word law times
    lognormal noise per component, then water-filled to the floor."""
    rng = np.random.default_rng(seed)
    draws = rng.exponential(size=num_comps)
    pi = draws / draws.sum()
    empirical = corpus.word_totals() / corpus.total_tokens
    log_f = np.empty((num_comps, corpus.num_words))
    for k in range(num_comps):
        noisy = empirical * np.exp(noise_scale * rng.standard_normal(corpus.num_words))
        log_f[k] = np.log(water_fill_project(noisy, epsilon))
    return MixtureModel(pi=pi, log_f=log_f, epsilon=epsilon)


def _without(model: MixtureModel, removed: list[int]) -> MixtureModel:
    """The model with the listed components deleted and weights renormalized."""
    keep = [k for k in range(model.num_components) if k not in removed]
    if not keep:
        raise DegenerateFitError("annihilation removed every component")
    pi = model.pi[keep]
    return MixtureModel(pi=pi / pi.sum(), log_f=model.log_f[keep].copy(),
                        epsilon=model.epsilon)


def _annihilate(model: MixtureModel, divisor: float) -> tuple[MixtureModel, list[int]]:
    threshold = 1.0 / (divisor * model.num_components)
    below = [k for k in range(model.num_components) if model.pi[k] < threshold]
    if not below:
        return model, []
    return _without(model, below), below


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
    if epsilon is None:
        epsilon = default_floor(corpus.total_tokens)
    if corpus.num_words * epsilon > 1.0:
        raise InfeasibleFloorError(
            f"floor {epsilon} infeasible for {corpus.num_words} categories"
        )

    weight_offset = config.weight_offset(corpus.num_words)

    def one_start(i: int) -> FitResult:
        # A fixed number of iterations: rel_tol 0 never stops a start early,
        # not even one that stalls at eta == 0.
        seed = config.rng_seed + i
        init = random_init(corpus, k_max, seed, epsilon, config.init_noise_scale)
        return _em_loop(corpus, init, config.short_iters, 0.0, weight_offset, seed)

    def score(fit: FitResult) -> float:
        if config.annihilation == "mml":
            return -message_length(fit.loglik_trace[-1], fit.model.pi,
                                   corpus.num_docs, 2 * weight_offset)
        return fit.loglik_trace[-1]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            starts = list(pool.map(one_start, range(config.n_starts)))
    else:
        starts = [one_start(i) for i in range(config.n_starts)]
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
