"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` wraps every public function of docmix's layer modules
in every docmix namespace that holds it (so ``docmix.em.score_matrix`` is
wrapped as well as ``docmix.mixture.score_matrix``), plus the public
methods of the classes those modules define. Each call records a span:
name, id, parent id, start, end and a few counts taken at the boundary.
Parents are tracked through a context variable, and the thread pools
docmix creates are swapped for one that carries the caller's context
into its workers, so a start running in ``robust_em``'s pool links to
its rung. ``uninstall`` puts every original back.

``layer_metrics`` turns recorded spans into the per-layer metrics the
benchmark reports.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import math
import time
from concurrent import futures

LAYERS = ("corpus", "mixture", "em", "selection", "synth", "cli")

_current = contextvars.ContextVar("bench_span", default=None)


class ContextThreadPool(futures.ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _score_matrix_counts(args, kwargs, result):
    counts, model = args[0], args[1]
    return {"nnz": counts.nnz, "L": counts.shape[0],
            "K": model.num_components, "B": counts.shape[1]}


def _robust_em_counts(args, kwargs, result):
    return {"annihilation_rounds": len(result.annihilation_events)}


def _run_sweep_counts(args, kwargs, result):
    return {"failed_rungs": len(result[1])}


def _parse_counts(args, kwargs, result):
    return {"tokens": result.total_tokens}


class Tracer:
    def __init__(self):
        # (name, span id, parent id, start, end, counts or None)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []
        self._csr = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around code of the benchmark's own, e.g. one round."""
        span_id, parent = next(self._ids), _current.get()
        token = _current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self.spans.append((name, span_id, parent, start, end, None))

    def wrap(self, name: str, fn, counts=None):
        spans, ids, current, clock = self.spans, self._ids, _current, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = next(ids), current.get()
            token = current.set(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
            spans.append((name, span_id, parent, start, end,
                          counts(args, kwargs, result) if counts else None))
            return result

        return traced

    def _m_step_counts(self, args, kwargs, result):
        corpus, resp = args[0], args[1]
        # the unwrapped method, so that counting adds no span
        csr = self._csr(corpus)
        return {"nnz": csr.nnz, "L": resp.shape[0], "K": resp.shape[1],
                "B": csr.shape[1]}

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("docmix")
        modules = [importlib.import_module(f"docmix.{layer}") for layer in LAYERS]
        self._csr = modules[0].Corpus.csr
        counters = {
            "mixture.score_matrix": _score_matrix_counts,
            "em.m_step": self._m_step_counts,
            "em.robust_em": _robust_em_counts,
            "selection.run_sweep": _run_sweep_counts,
            "corpus.parse_bag_of_words": _parse_counts,
        }
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(value):
                    wrapped[id(value)] = (value, self.wrap(name, value, counters.get(name)))
                elif inspect.isclass(value):
                    self._wrap_methods(name, value)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
                elif value is futures.ThreadPoolExecutor:
                    self._set(module, attr, ContextThreadPool)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self.wrap(name, member))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, member.__func__)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _quantile(values, q) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class _Stats:
    def __init__(self):
        self.durations: list[float] = []
        self.self_s = 0.0
        self.counts: dict[str, float] = {}
        self.flops = 0.0
        self.bytes = 0.0

    @property
    def s(self) -> float:
        return math.fsum(self.durations)


def _score_matrix_cost(c) -> tuple[float, float]:
    # One sparse matvec per component: X (values, column indices, row
    # pointers) is read K times, plus the gathered log_f row and the
    # written score column.
    nnz, rows, comps, words = c["nnz"], c["L"], c["K"], c["B"]
    flops = comps * (2.0 * nnz + rows)
    data = comps * (12.0 * nnz + 4.0 * (rows + 1) + 8.0 * words + 8.0 * rows)
    return flops, data


def _m_step_matmul_cost(c) -> tuple[float, float]:
    # X.T @ resp: one pass over X for all K columns, resp read once,
    # the B x K result written once.
    nnz, rows, comps, words = c["nnz"], c["L"], c["K"], c["B"]
    flops = 2.0 * nnz * comps
    data = 12.0 * nnz + 4.0 * (rows + 1) + 8.0 * rows * comps + 8.0 * words * comps
    return flops, data


_COSTS = {"mixture.score_matrix": _score_matrix_cost,
          "em.m_step": _m_step_matmul_cost}


def collect(span_lists) -> dict[str, _Stats]:
    """Per-name statistics over spans of one or more processes."""
    stats: dict[str, _Stats] = {}
    e_step_scores = 0
    for spans in span_lists:
        by_id = {s[1]: s for s in spans}
        children: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            if s[2] is not None:
                children.setdefault(s[2], []).append((s[3], s[4]))
        for name, span_id, parent, start, end, counts in spans:
            st = stats.setdefault(name, _Stats())
            st.durations.append(end - start)
            st.self_s += (end - start) - _covered(children.get(span_id, ()), start, end)
            if counts:
                for key, value in counts.items():
                    st.counts[key] = st.counts.get(key, 0) + value
                cost = _COSTS.get(name)
                if cost is not None:
                    flops, data = cost(counts)
                    st.flops += flops
                    st.bytes += data
            if name == "mixture.score_matrix":
                up = parent
                while up is not None and up in by_id:
                    if by_id[up][0] == "em.e_step":
                        e_step_scores += 1
                        break
                    up = by_id[up][2]
    stats.setdefault("mixture.score_matrix", _Stats()).counts["in_e_step"] = e_step_scores
    return stats


def layer_metrics(stats: dict[str, _Stats]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each (value, unit); absent layers read 0."""
    get = lambda name: stats.get(name, _Stats())  # noqa: E731
    out: dict[str, tuple[float, str]] = {}

    def seconds(name):
        out[f"{name}.s"] = (get(name).s, "s")

    def calls(name):
        out[f"{name}.calls"] = (float(len(get(name).durations)), "count")

    def self_seconds(name):
        out[f"{name}.self_s"] = (get(name).self_s, "s")

    parse = get("corpus.parse_bag_of_words")
    seconds("corpus.parse_bag_of_words")
    out["corpus.parse_bag_of_words.tokens_per_s"] = (
        parse.counts.get("tokens", 0) / parse.s if parse.s else 0.0, "1/s")
    for name in ("corpus.prune_vocabulary", "corpus.save_corpus",
                 "corpus.load_corpus", "corpus.Corpus.from_docs", "corpus.Corpus.csr"):
        seconds(name)
    calls("corpus.Corpus.word_totals")
    seconds("corpus.Corpus.word_totals")

    score = get("mixture.score_matrix")
    calls("mixture.score_matrix")
    seconds("mixture.score_matrix")
    e_steps = len(get("em.e_step").durations)
    out["mixture.score_matrix.calls_per_e_step"] = (
        score.counts.get("in_e_step", 0) / e_steps if e_steps else 0.0, "count")
    out["mixture.score_matrix.flops_computed"] = (score.flops, "flop")
    out["mixture.score_matrix.bytes_computed"] = (score.bytes, "B")
    out["mixture.score_matrix.gflops"] = (score.flops / score.s / 1e9 if score.s else 0.0,
                                          "GFLOP/s")
    self_seconds("mixture.per_doc_log_density")
    calls("mixture.MixtureModel.validate")
    seconds("mixture.MixtureModel.validate")

    for name in ("em.e_step", "em.m_step"):
        calls(name)
        self_seconds(name)
    m_step = get("em.m_step")
    out["em.m_step.flops_computed"] = (m_step.flops, "flop")
    out["em.m_step.bytes_computed"] = (m_step.bytes, "B")
    calls("em.water_fill_project")
    seconds("em.water_fill_project")
    seconds("em.random_init")
    calls("em.short_em")
    out["em.short_em.s_p50"] = (_quantile(get("em.short_em").durations, 0.5), "s")
    calls("em.run_em")
    seconds("em.run_em")
    robust = get("em.robust_em")
    out["em.robust_em.annihilation_rounds"] = (
        float(robust.counts.get("annihilation_rounds", 0)), "count")
    out["em.robust_em.s_p50"] = (_quantile(robust.durations, 0.5), "s")
    out["em.robust_em.s_p90"] = (_quantile(robust.durations, 0.9), "s")
    out["em.robust_em.samples"] = (float(len(robust.durations)), "count")
    out["em.robust_em.pool_wait_s"] = (robust.self_s, "s")

    seconds("selection.run_sweep")
    out["selection.run_sweep.failed_rungs"] = (
        float(get("selection.run_sweep").counts.get("failed_rungs", 0)), "count")
    seconds("selection.select_from_sweep")

    out["cli.import_s"] = (get("cli.import").s, "s")
    for name in ("cli.cmd_ingest", "cli.cmd_sweep", "cli.cmd_select", "cli.cmd_report",
                 "synth.planted_mixture", "synth.generate_corpus"):
        seconds(name)
    return out
