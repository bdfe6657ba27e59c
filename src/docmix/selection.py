"""Penalized selection of the number of mixture components.

A sweep fits the mixture at a ladder of start sizes and records, per
realized component count K, the model dimension K*B and the best
contrast (negative log-likelihood) achieved. Selection minimizes
contrast(K) + penalty(K) over the sweep.

Each mode in MODES names a whole penalty: "slope" is 2 * lambda_min * K * B,
where lambda_min is read off the asymptotically linear tail of contrast
versus dimension (slope heuristics), the widest trailing window whose
slope moved less than the fixed _PLATEAU_TOL; "theoretical" is the
risk-bound shape rate * K * B + L log K + K log 2 with a per-dimension
rate that grows like log n; "slope-theoretical" is that shape with its
constant calibrated by slope heuristics; "aic" and "bic" are the
classical baselines. varying_vocab_penalty extends the risk bound to a
vocabulary selected jointly with K. select_from_sweep takes the swept
corpus's token and document counts in every mode.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, atomic_write_text, dumps_document
from .em import EmConfig, FitResult, _is_integer, robust_em
from .errors import (
    DegenerateFitError,
    DegenerateRegressionError,
    FormatError,
    InsufficientDataError,
    NumericalError,
    ParseError,
)

SWEEP_CSV_HEADER = ["K", "D_K", "min_contrast"]

# Selection modes; each names its whole penalty.
MODES = ("slope", "slope-theoretical", "theoretical", "aic", "bic")


def penalty_rate(total_tokens: int) -> float:
    """Per-dimension rate of the risk penalty for a corpus with n tokens.

    With tau = log n the rate is 2 (sqrt(log(2 tau)) + sqrt(pi))^2 + 1 + log n.
    Grows like log n, so the penalty per parameter stays mild.
    """
    if total_tokens < 2:
        raise ValueError(f"need at least 2 tokens, got {total_tokens}")
    tau = math.log(total_tokens)
    return 2.0 * (math.sqrt(math.log(2.0 * tau)) + math.sqrt(math.pi)) ** 2 + 1.0 + tau


def theoretical_penalty(num_comps: int, num_docs: int, total_tokens: int,
                        num_words: int, multiplier: float) -> float:
    """Risk-bound penalty for a K-component mixture over B words."""
    if num_comps < 1:
        raise ValueError("need at least one component")
    if num_docs < 1:
        raise ValueError("need at least one document")
    rate = penalty_rate(total_tokens)
    return multiplier * (rate * num_comps * num_words
                         + num_docs * math.log(num_comps)
                         + num_comps * math.log(2.0))


def varying_vocab_penalty(num_comps: int, num_words: int, num_docs: int,
                          total_tokens: int, multiplier: float) -> float:
    """Penalty when the vocabulary size is selected jointly with K.

    The model collection is {(K=1, B=1)} plus all (K >= 1, B >= 2);
    anything else is outside the collection.
    """
    if num_comps < 1:
        raise ValueError("need at least one component")
    if num_words < 2 and not (num_comps == 1 and num_words == 1):
        raise ValueError(
            f"({num_comps},{num_words}) is outside the model collection"
        )
    rate = penalty_rate(total_tokens)
    return multiplier * (rate * num_comps * (num_words + 1)
                         + num_docs * math.log(num_comps)
                         + num_comps * num_words * math.log(2.0))


@dataclass(frozen=True)
class SweepEntry:
    num_comps: int
    dimension: int
    min_contrast: float
    fit: FitResult | None = None

    def __post_init__(self):
        if self.num_comps < 1 or self.dimension < 1:
            raise ValueError("component count and dimension must be positive")
        if self.dimension >= 2**53:  # below it, a penalty reads D_K as an exact float
            raise ValueError(f"dimension {self.dimension} is not below 2**53")
        if not math.isfinite(self.min_contrast):
            raise ValueError(f"contrast must be finite, got {self.min_contrast}")


@dataclass(frozen=True)
class SweepResult:
    entries: tuple[SweepEntry, ...]

    def __post_init__(self):
        ks = [e.num_comps for e in self.entries]
        if ks != sorted(ks) or len(set(ks)) != len(ks):
            raise ValueError("sweep entries must be sorted by K and unique")

    def points(self) -> list[tuple[int, float]]:
        return [(e.dimension, e.min_contrast) for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SlopeDiagnostics:
    window_sizes: tuple[int, ...]
    slopes: tuple[float, ...]
    rel_changes: tuple[float, ...]
    chosen_window: int
    stable: bool


@dataclass(frozen=True)
class SelectionReport:
    mode: str
    k_hat: int
    criteria: tuple[tuple[int, float], ...]
    lambda_min: float | None = None
    penalty_multiplier: float | None = None
    diagnostics: SlopeDiagnostics | None = None


# Relative slope change below which slope_heuristics calls a window stable.
_PLATEAU_TOL = 0.05


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        return math.nan
    return float(np.dot(xc, y - y.mean()) / denom)


def slope_heuristics(points) -> tuple[float, SlopeDiagnostics]:
    """Read the contrast-versus-dimension slope off its linear tail.

    Fits ordinary least squares over every trailing window of the
    w largest-dimension points, w from 3 up to all points, and picks
    the largest w whose slope moved less than _PLATEAU_TOL relatively
    from the (w-1)-window slope. When no window is that stable the one
    with the smallest relative change wins (larger w on ties) and the
    diagnostics say stable=False. A window whose change is NaN, because
    it or the window before it spans a single dimension, is never chosen.
    """
    pts = sorted(points, key=lambda p: (p[0], p[1]))
    dims = np.asarray([p[0] for p in pts], dtype=np.float64)
    contrasts = np.asarray([p[1] for p in pts], dtype=np.float64)
    if len(pts) and np.all(dims == dims[0]):
        raise DegenerateRegressionError("all sweep points share one dimension")
    distinct = sorted(set(dims.tolist()))
    if len(distinct) < 4:
        raise InsufficientDataError(
            f"slope heuristics need at least 4 distinct dimensions, got {len(distinct)} (D_K = "
            f"{', '.join(f'{d:g}' for d in distinct)}); use --mode aic|bic|theoretical "
            "or a wider ladder")

    sizes = list(range(3, len(pts) + 1))
    slopes = [_ols_slope(dims[-w:], contrasts[-w:]) for w in sizes]
    rel_changes = [math.nan]
    for i in range(1, len(sizes)):
        prev, cur = slopes[i - 1], slopes[i]
        rel_changes.append(abs(cur - prev) / max(abs(prev), 1e-300))

    candidates = [i for i in range(1, len(sizes)) if not math.isnan(rel_changes[i])]
    if not candidates:
        raise DegenerateRegressionError("no window has a defined slope change")
    stable_sizes = [sizes[i] for i in candidates if rel_changes[i] < _PLATEAU_TOL]
    if stable_sizes:
        chosen = max(stable_sizes)
        stable = True
    else:
        best = min(candidates, key=lambda i: (rel_changes[i], -sizes[i]))
        chosen = sizes[best]
        stable = False
    lambda_min = abs(slopes[sizes.index(chosen)])
    diagnostics = SlopeDiagnostics(
        window_sizes=tuple(sizes),
        slopes=tuple(slopes),
        rel_changes=tuple(rel_changes),
        chosen_window=chosen,
        stable=stable,
    )
    return lambda_min, diagnostics


def select_model(sweep: SweepResult, penalty, mode: str = "custom",
                 lambda_min: float | None = None,
                 penalty_multiplier: float | None = None,
                 diagnostics: SlopeDiagnostics | None = None) -> SelectionReport:
    """Minimize contrast + penalty over the sweep; ties go to smaller K.

    ``penalty`` is a sequence aligned with the sweep's entries. Every
    criterion must be finite.
    """
    if len(sweep) == 0:
        raise ValueError("sweep is empty")
    if len(penalty) != len(sweep):
        raise ValueError("penalty sequence does not align with the sweep")
    criteria = tuple((e.num_comps, e.min_contrast + float(pen))
                     for e, pen in zip(sweep.entries, penalty))
    for k, value in criteria:
        if not math.isfinite(value):
            raise ValueError(f"criterion for K={k} is not finite: {value}")
    k_hat = min(criteria, key=lambda kv: kv[1])[0]
    return SelectionReport(
        mode=mode,
        k_hat=k_hat,
        criteria=criteria,
        lambda_min=lambda_min,
        penalty_multiplier=penalty_multiplier,
        diagnostics=diagnostics,
    )


def select_from_sweep(sweep: SweepResult, mode: str = "slope", *,
                      total_tokens: int, num_docs: int) -> SelectionReport:
    """Build the per-K penalty for ``mode`` and run select_model, for a
    sweep of a corpus of total_tokens tokens in num_docs documents.

    Modes: "slope" calibrates lambda_min by slope heuristics and uses
    penalty(K) = 2 lambda_min K B; "slope-theoretical" uses the risk
    bound rescaled so its leading term matches that, a multiplier of
    2 lambda_min / penalty_rate(n); "theoretical" uses the risk bound
    with multiplier 1; "aic" and "bic" use the classical baselines D_K
    and D_K log(n)/2.
    """
    if len(sweep) == 0:
        raise ValueError("sweep is empty")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if total_tokens < 2:
        raise ValueError(f"need at least 2 tokens, got {total_tokens}")
    lam = diag = None
    multiplier = 1.0
    if mode in ("slope", "slope-theoretical"):
        lam, diag = slope_heuristics(sweep.points())
        multiplier = 2.0 * lam
    if mode in ("theoretical", "slope-theoretical"):
        if mode == "slope-theoretical":
            multiplier = 2.0 * lam / penalty_rate(total_tokens)
        for e in sweep.entries:
            if e.dimension % e.num_comps:
                raise ValueError(f"dimension {e.dimension} is not a multiple of K={e.num_comps}")
        penalty = [theoretical_penalty(e.num_comps, num_docs, total_tokens,
                                       e.dimension // e.num_comps, multiplier)
                   for e in sweep.entries]
    elif mode == "slope":
        penalty = [2.0 * lam * e.dimension for e in sweep.entries]
    else:
        # the per-token criteria D/n and D log(n)/(2n), times n, on the contrast's scale
        scale = 1.0 if mode == "aic" else math.log(total_tokens) / 2.0
        penalty = [e.dimension * scale for e in sweep.entries]
        multiplier = None
    return select_model(sweep, penalty, mode=mode, lambda_min=lam,
                        penalty_multiplier=multiplier, diagnostics=diag)


def derive_seed(base_seed: int, k_max: int) -> int:
    """Stable per-rung seed so ladder entries stay independent of order."""
    return int(np.random.SeedSequence((base_seed, k_max)).generate_state(1)[0])


def run_sweep(corpus: Corpus, ladder, config: EmConfig, threads: int = 1,
              ) -> tuple[SweepResult, list[tuple[int, str]]]:
    """One robust fit per distinct ladder entry, keyed by realized component count.

    Every rung fits with robust_em's floor 1/n, the one penalty_rate
    assumes. Annihilation makes the realized K at most the start size,
    so two rungs can land on the same K; the better (smaller) contrast
    wins. Failed rungs are reported, not fatal.
    """
    ladder = list(dict.fromkeys(ladder))  # a repeated rung would repeat its fit
    if not ladder:
        raise ValueError("ladder is empty")
    if not all(_is_integer(k) and k >= 1 for k in ladder):
        raise ValueError(f"ladder entries must be integers >= 1, got {ladder!r}")
    best: dict[int, SweepEntry] = {}
    failures: list[tuple[int, str]] = []
    for k_max in ladder:
        rung_config = replace(config, rng_seed=derive_seed(config.rng_seed, k_max))
        try:
            fit = robust_em(corpus, k_max, rung_config, threads=threads)
        except (NumericalError, DegenerateFitError) as exc:
            failures.append((k_max, str(exc)))
            continue
        contrast = -fit.loglik_trace[-1]
        k = fit.k_final
        if k not in best or contrast < best[k].min_contrast:
            best[k] = SweepEntry(
                num_comps=k,
                dimension=k * corpus.num_words,
                min_contrast=contrast,
                fit=fit,
            )
    entries = tuple(best[k] for k in sorted(best))
    return SweepResult(entries=entries), failures


def sweep_to_csv(sweep: SweepResult) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for e in sweep.entries:
        writer.writerow([e.num_comps, e.dimension, repr(e.min_contrast)])
    return buffer.getvalue()


def sweep_from_csv(text: str) -> SweepResult:
    reader = csv.reader(io.StringIO(text))
    try:  # line_num is the physical line each row ends on
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # a bare carriage return, or a field over csv's size limit
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    header = rows[0][1] if rows else None
    if header is None or [h.strip() for h in header] != SWEEP_CSV_HEADER:
        raise FormatError(
            f"expected header {','.join(SWEEP_CSV_HEADER)!r}, got {header!r}"
        )
    entries = []
    line_of: dict[int, int] = {}  # K -> the line it was read from
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", line=lineno)
        try:
            entry = SweepEntry(
                num_comps=int(row[0]),
                dimension=int(row[1]),
                min_contrast=float(row[2]),
            )
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if entry.num_comps in line_of:
            raise ParseError(f"K={entry.num_comps} repeats line {line_of[entry.num_comps]}",
                             line=lineno)
        line_of[entry.num_comps] = lineno
        entries.append(entry)
    entries.sort(key=lambda e: e.num_comps)
    return SweepResult(entries=tuple(entries))


def save_sweep(sweep: SweepResult, path: str | os.PathLike) -> None:
    atomic_write_text(path, sweep_to_csv(sweep))


def load_sweep(path: str | os.PathLike) -> SweepResult:
    with open(path, encoding="utf-8") as handle:
        return sweep_from_csv(handle.read())


def dumps_selection_report(report: SelectionReport) -> str:
    diagnostics = report.diagnostics
    return dumps_document("selection", {
        "mode": report.mode,
        "K_hat": report.k_hat,
        "lambda_min": report.lambda_min,
        "penalty_multiplier": report.penalty_multiplier,
        "criteria": [[k, v] for k, v in report.criteria],
        "diagnostics": None if diagnostics is None else {
            "window_sizes": list(diagnostics.window_sizes),
            "slopes": [s if math.isfinite(s) else None for s in diagnostics.slopes],
            "rel_changes": [r if math.isfinite(r) else None for r in diagnostics.rel_changes],
            "chosen_window": diagnostics.chosen_window,
            "stable": diagnostics.stable,
        },
    }, indent=2)
