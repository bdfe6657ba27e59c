"""Bag-of-words corpora of variable-length categorical observations.

A corpus holds L documents over a shared vocabulary of B words as one
L x B count matrix in CSR form, three numpy arrays: row l lists the words
of document l and their positive counts. Its length n_l is the row sum and
the corpus total is n = sum_l n_l. Documents may have very different
lengths, which is the point: every operation downstream weights documents
by n_l where it matters. The matrix is validated once, when the corpus is
built. Only the sparse products of EM need scipy: ``Corpus.csr()`` builds
its matrix on first use, so ingesting or reading a corpus never imports it.
A corpus holds no document years: ``report --metadata`` is their one way in.

On disk the exchange format is the UCI bag-of-words pair: a ``docword``
file with three integer header lines (D, W, NNZ) followed by NNZ
whitespace-separated ``docID wordID count`` triples (1-based), and a
``vocab`` file with one token per line. Internal persistence is one
strict-JSON codec for every docmix document (corpus, model, run log,
selection report): dumps_document writes a versioned container and never
a bare NaN or Infinity, and loads_document rejects both when it reads.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import IO, Callable, Iterable, NamedTuple, TypeVar

import numpy as np

from .errors import EmptyVocabularyError, FormatError, ParseError

DOCUMENT_VERSION = 1
_T = TypeVar("_T")
_BATCH_LINES = 1 << 16  # docword lines per np.loadtxt call: bounds the text held as str


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to ``path`` via a temp file and rename, never a partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def loads_strict_json(text: str):
    """``json.loads`` that rejects the bare NaN and +-Infinity it would accept."""
    def reject(name: str):
        raise ValueError(f"bare {name} is not JSON")
    return json.loads(text, parse_constant=reject)


def dumps_document(kind: str, fields: dict, indent: int | None = None) -> str:
    """The ``docmix.<kind>`` document of ``fields`` as strict JSON, compact
    unless ``indent`` is given; a non-finite float raises ValueError."""
    return json.dumps({"format": f"docmix.{kind}", "version": DOCUMENT_VERSION, **fields},
                      indent=indent, separators=(",", ": " if indent else ":"), allow_nan=False)


def loads_document(text: str, kind: str, build: Callable[[dict], _T]) -> _T:
    """The object ``build`` makes from the payload of a ``docmix.<kind>``
    document. Every way the text can be corrupt raises FormatError."""
    try:
        payload = loads_strict_json(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise FormatError(f"{kind} payload is not valid JSON (truncated?): {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != f"docmix.{kind}":
        raise FormatError(f"payload is not a docmix {kind} container")
    if payload.get("version") != DOCUMENT_VERSION:
        raise FormatError(f"unsupported {kind} version {payload.get('version')!r}, "
                          f"expected {DOCUMENT_VERSION}")
    try:
        return build(payload)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FormatError(f"{kind} payload is structurally invalid: {exc}") from exc


@dataclass(frozen=True)
class Vocabulary:
    """Ordered list of unique tokens; index -> token is stable across save/load."""

    words: tuple[str, ...]

    def __post_init__(self):
        if not all(isinstance(word, str) for word in self.words):
            raise TypeError("vocabulary tokens must be strings")
        if len(set(self.words)) != len(self.words):
            raise ValueError("vocabulary tokens must be unique")

    @property
    def size(self) -> int:
        return len(self.words)

    def __getitem__(self, index: int) -> str:
        return self.words[index]


class CountMatrix(NamedTuple):
    """An L x B count matrix in CSR form: row l's word indices are
    ``indices[indptr[l]:indptr[l + 1]]``, its counts that slice of ``data``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


@dataclass(eq=False)
class Corpus:
    """Immutable-by-convention collection of sparse count vectors.

    ``counts`` is the L x B document-by-word ``CountMatrix`` in canonical
    form: float64 whole-number counts >= 1, int32 column indices sorted and
    unique within each row, and no empty row. Construction validates it
    (sorting rows that arrive unsorted) and derives ``doc_lengths`` and
    ``total_tokens``. ``dropped_doc_ids`` records documents removed by
    pruning so that reports can state coverage; they also keep the pruning
    denominator stable, which makes pruning idempotent.
    """

    vocab: Vocabulary
    counts: CountMatrix
    doc_ids: list[int]
    dropped_doc_ids: list[int] = field(default_factory=list)
    doc_lengths: list[int] = field(init=False, repr=False)
    total_tokens: int = field(init=False)

    def __post_init__(self):
        data, indices, indptr = map(np.asarray, self.counts)
        num_docs, num_words = len(self.doc_ids), self.vocab.size
        if len(indptr) != num_docs + 1 or indptr[0] != 0 \
                or not len(data) == len(indices) == indptr[-1]:
            raise ValueError(f"counts is not in CSR form with {num_docs} rows, one per doc_id")
        if len({*self.doc_ids, *self.dropped_doc_ids}) != num_docs + len(self.dropped_doc_ids):
            raise ValueError("doc_ids and dropped_doc_ids must be unique and disjoint")

        def doc_at(position) -> int:
            return self.doc_ids[np.searchsorted(indptr, position, side="right") - 1]

        empty = np.flatnonzero(indptr[1:] <= indptr[:-1])
        if empty.size:
            raise ValueError(f"document {self.doc_ids[empty[0]]} is empty")
        bad = np.flatnonzero((indices < 0) | (indices >= num_words))
        if bad.size:
            raise IndexError(f"document {doc_at(bad[0])}: word index {indices[bad[0]]} "
                             f"out of range 0..{num_words - 1}")
        data = data.astype(np.float64, copy=False)
        bad = np.flatnonzero(~(np.isfinite(data) & (data >= 1) & (data == np.floor(data))))
        if bad.size:
            raise ValueError(f"document {doc_at(bad[0])}: count {data[bad[0]]:g} "
                             "is not a positive whole number")
        index_type = np.int32 if max(len(indices), num_words) < 2**31 else np.int64
        indices, indptr = (a.astype(index_type, copy=False) for a in (indices, indptr))
        steps = np.diff(indices)
        steps[indptr[1:-1] - 1] = 1  # a step across rows is neither unsorted nor repeated
        if (steps < 0).any():  # sort each row by word index, then validate again
            order = np.lexsort((indices, np.repeat(np.arange(num_docs), np.diff(indptr))))
            self.counts = CountMatrix(data[order], indices[order], indptr)
            return self.__post_init__()
        repeated = np.flatnonzero(steps == 0)
        if repeated.size:
            raise ValueError(f"document {doc_at(repeated[0])}: word index "
                             f"{indices[repeated[0]]} is repeated")
        lengths = np.add.reduceat(data, indptr[:-1])
        too_long = np.flatnonzero(lengths >= 2**53)  # below it, float64 sums are exact
        if too_long.size:
            raise ValueError(f"document {self.doc_ids[too_long[0]]}: length "
                             f"{lengths[too_long[0]]:g} is not below 2**53")
        self.counts = CountMatrix(data, indices, indptr)
        self.doc_lengths = lengths.astype(np.int64).tolist()
        self.total_tokens = sum(self.doc_lengths)
        self._csr = None

    @classmethod
    def from_docs(cls, vocab: Vocabulary, docs: list[dict], doc_ids: list[int]) -> "Corpus":
        """Build from one {word index: count} map per document, keys in any order."""
        indptr = np.cumsum([0] + [len(doc) for doc in docs])
        nnz = int(indptr[-1])
        return cls(vocab=vocab, doc_ids=list(doc_ids), counts=CountMatrix(
            np.fromiter(chain.from_iterable(doc.values() for doc in docs), np.float64, nnz),
            np.fromiter(chain.from_iterable(docs), np.int64, nnz),
            indptr))

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def num_words(self) -> int:
        return self.vocab.size

    def csr(self):
        """``counts`` as a scipy ``csr_matrix`` sharing its arrays, built on first use."""
        if self._csr is None:
            from scipy import sparse  # the only scipy.sparse import: ingest and select skip it
            self._csr = sparse.csr_matrix(self.counts, shape=(self.num_docs, self.num_words))
        return self._csr

    def word_totals(self) -> np.ndarray:
        """Total count of every word across the corpus."""
        return np.bincount(self.counts.indices, weights=self.counts.data, minlength=self.num_words)


def parse_bag_of_words(docword_lines: Iterable[str], vocab_lines: Iterable[str]) -> Corpus:
    """Parse UCI-style docword and vocab streams into a corpus.

    Each item of ``docword_lines`` is one line; README "Formats" gives the
    grammar and the error the first bad line raises. Documents that own no
    triples are omitted; repeated (doc, word) triples add their counts.
    """
    lines = iter(docword_lines)
    header: list[int] = []
    lineno = 0
    while len(header) < 3:
        line = next(lines, None)
        lineno += 1
        if line is None:
            raise ParseError("unexpected end of stream while reading header", line=lineno)
        text = line.strip()
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"expected an integer header value, got {text!r}", line=lineno) from None
        if value < 0:
            raise ParseError(f"header value must be nonnegative, got {value}", line=lineno)
        header.append(value)
    num_docs, num_words, num_triples = header

    chunks = [np.empty((0, 3), dtype=np.int64)]
    num_rows = 0
    while batch := list(islice(lines, _BATCH_LINES)):
        rows = _load_triples(batch)
        malformed = None
        if rows is None:  # the first line whose prefix is rejected, by bisection
            malformed = bisect_left(range(len(batch)), True,
                                    key=lambda end: _load_triples(batch[:end + 1]) is None)
            rows = _load_triples(batch[:malformed])
        _check_triples(rows, num_rows, header, batch, lineno + 1)
        if malformed is not None:
            raise ParseError(f"expected 'docID wordID count' as three integers, "
                             f"got {batch[malformed].strip()!r}", line=lineno + 1 + malformed)
        chunks.append(rows)
        num_rows += len(rows)
        lineno += len(batch)
    if num_rows < num_triples:
        raise ParseError(f"declared {num_triples} triples but found {num_rows}", line=lineno)

    tokens: dict[str, int] = {}  # each token's vocab line
    for vocab_lineno, line in enumerate(vocab_lines, start=1):
        token = line.strip()
        if not token:
            raise ParseError("empty vocabulary token", line=vocab_lineno)
        if token in tokens:
            raise ParseError(f"vocabulary token {token!r} repeats line {tokens[token]}",
                             line=vocab_lineno)
        tokens[token] = vocab_lineno
    if len(tokens) != num_words:
        raise ParseError(
            f"vocabulary has {len(tokens)} tokens but the docword header declares {num_words}"
        )

    doc, word, count = np.concatenate(chunks).T
    # rows are the documents that own triples; the header's D may be far larger
    doc_ids, doc_rows = np.unique(doc, return_inverse=True)
    # one key per (row, word), in CSR order; repeated triples add their counts
    # in int64, and Corpus casts the sums to float64
    keys, slots = np.unique(doc_rows * num_words + (word - 1), return_inverse=True)
    totals = np.zeros(keys.size, dtype=np.int64)
    np.add.at(totals, slots, count)
    rows, words = np.divmod(keys, num_words)
    counts = CountMatrix(totals, words, np.searchsorted(rows, np.arange(doc_ids.size + 1)))
    return Corpus(vocab=Vocabulary(tuple(tokens)), counts=counts, doc_ids=doc_ids.tolist())


def _load_triples(lines: list[str]) -> np.ndarray | None:
    """Non-blank ``lines`` as n x 3 int64 rows; None unless each is three ASCII integers."""
    # np.loadtxt reads some non-ASCII letters as digits; Unicode whitespace is fine
    if not all(map(str.isascii, lines)) and not all(
            "".join(line.split()).isascii() for line in lines):
        return None
    if not any(map(str.strip, lines)):
        return np.empty((0, 3), dtype=np.int64)
    try:
        rows = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == 3 else None


def _check_triples(rows: np.ndarray, first_row: int, header: list[int],
                   lines: list[str], first_line: int) -> None:
    """Raise for the first bad one of ``rows``: row ``first_row`` on, from line ``first_line``."""
    num_docs, num_words, num_triples = header
    doc, word, count = rows.T
    bad = (doc < 1) | (doc > num_docs) | (word < 1) | (word > num_words) | (count < 1) \
        | (count >= 2**53)
    bad[num_triples - first_row:] = True  # rows beyond the declared count
    if not bad.any():
        return
    row = int(bad.argmax())
    # np.loadtxt skips blank lines, so row r is the r-th non-blank line
    nonblank = (i for i, text in enumerate(lines) if text.strip())
    line = first_line + next(islice(nonblank, row, None))
    doc_id, word_id, value = rows[row].tolist()
    if first_row + row >= num_triples:
        raise ParseError(f"more than the declared {num_triples} triples", line=line)
    if not 1 <= doc_id <= num_docs:
        raise IndexError(f"line {line}: doc id {doc_id} out of range 1..{num_docs}")
    if not 1 <= word_id <= num_words:
        raise IndexError(f"line {line}: word id {word_id} out of range 1..{num_words}")
    raise ValueError(f"line {line}: count must be positive and below 2**53, got {value}")


def dump_bag_of_words(corpus: Corpus) -> tuple[str, str]:
    """Render a corpus back to (docword text, vocab text).

    The declared D is the largest retained doc id, so reparsing the output
    yields a structurally identical corpus.
    """
    data, indices, indptr = corpus.counts
    triples = map("{} {} {}".format,
                  chain.from_iterable(map(repeat, corpus.doc_ids, np.diff(indptr).tolist())),
                  (indices + 1).tolist(),
                  data.astype(np.int64).tolist())
    max_id = max(corpus.doc_ids) if corpus.doc_ids else 0
    docword = "\n".join([str(max_id), str(corpus.num_words), str(len(data)), *triples])
    vocab = "\n".join(corpus.vocab.words)
    return docword + "\n", vocab + "\n"


def prune_vocabulary(corpus: Corpus, max_doc_fraction: float, top_b: int) -> Corpus:
    """Drop absent and over-common words, keep the ``top_b`` heaviest, drop emptied docs.

    Words present in no document or in strictly more than
    ``max_doc_fraction`` of the documents are removed first; of the
    remainder, the ``top_b`` with the highest total count are retained
    (ties go to the lower original index), so at least one document
    survives. Presence fractions use the number of documents the corpus has
    ever seen (retained plus previously dropped) as denominator, so
    pruning twice with the same arguments is a no-op.
    """
    if not 0 < max_doc_fraction <= 1:
        raise ValueError(f"max_doc_fraction must be in (0, 1], got {max_doc_fraction}")
    if top_b < 1:
        raise ValueError(f"top_b must be >= 1, got {top_b}")

    data, indices, indptr = corpus.counts
    num_seen = corpus.num_docs + len(corpus.dropped_doc_ids)
    doc_freq = np.bincount(indices, minlength=corpus.num_words)
    candidates = np.flatnonzero((doc_freq > 0) & (doc_freq <= max_doc_fraction * num_seen))
    # a stable sort of the ascending candidates breaks ties by lower index
    heaviest = np.argsort(-corpus.word_totals()[candidates], kind="stable")
    kept = np.sort(candidates[heaviest[:top_b]])
    if not kept.size:
        raise EmptyVocabularyError(
            f"no word occurs in at most {100 * max_doc_fraction:g}% of documents"
        )

    column = np.full(corpus.num_words, -1, dtype=indices.dtype)
    column[kept] = np.arange(kept.size)
    column = column[indices]  # each entry's new word index, -1 for a pruned word
    entries = np.flatnonzero(column >= 0)
    bounds = np.searchsorted(entries, indptr)  # an emptied row ends where it starts
    nonempty = np.diff(bounds) > 0
    new_ids = [doc_id for doc_id, keep in zip(corpus.doc_ids, nonempty) if keep]
    newly_dropped = [doc_id for doc_id, keep in zip(corpus.doc_ids, nonempty) if not keep]
    return Corpus(
        vocab=Vocabulary(tuple(corpus.vocab.words[b] for b in kept.tolist())),
        counts=CountMatrix(data[entries], column[entries], np.append(0, bounds[1:][nonempty])),
        doc_ids=new_ids,
        dropped_doc_ids=list(corpus.dropped_doc_ids) + newly_dropped,
    )


def dumps_corpus(corpus: Corpus) -> str:
    data, indices, indptr = corpus.counts
    indices, counts, bounds = indices.tolist(), data.astype(np.int64).tolist(), indptr.tolist()
    return dumps_document("corpus", {
        "words": list(corpus.vocab.words),
        "doc_ids": corpus.doc_ids,
        "docs": [[indices[a:b], counts[a:b]] for a, b in zip(bounds, bounds[1:])],
        "doc_years": None,  # a field of every version-1 file; years come from --metadata
        "dropped_doc_ids": corpus.dropped_doc_ids,
    })


def _int_array(values, what: str) -> np.ndarray:
    """JSON integers as an int64 array; bools, floats, strings and integers
    beyond 64 bits (OverflowError) are corrupt."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        raise FormatError(f"{what} must be integers")
    return np.array(values, dtype=np.int64)


def _corpus_from_payload(payload: dict) -> Corpus:
    docs = payload["docs"]
    if payload["doc_years"] is not None:
        raise FormatError("doc_years must be null: give years to report --metadata")
    if not all(type(payload[k]) is list for k in ("words", "docs", "doc_ids", "dropped_doc_ids")):
        raise FormatError("words, docs, doc_ids and dropped_doc_ids must be lists")
    if not all(isinstance(doc, list) and len(doc) == 2 and len(doc[0]) == len(doc[1])
               for doc in docs):
        raise FormatError("every document must be an [indices, counts] pair of equal lengths")
    return Corpus(
        vocab=Vocabulary(tuple(payload["words"])),
        counts=CountMatrix(_int_array(chain.from_iterable(doc[1] for doc in docs), "counts"),
                           _int_array(chain.from_iterable(doc[0] for doc in docs), "word indices"),
                           np.cumsum([0] + [len(doc[0]) for doc in docs])),
        doc_ids=_int_array(payload["doc_ids"], "doc_ids").tolist(),
        dropped_doc_ids=_int_array(payload["dropped_doc_ids"], "dropped_doc_ids").tolist(),
    )


def loads_corpus(text: str) -> Corpus:
    return loads_document(text, "corpus", _corpus_from_payload)


def save_corpus(corpus: Corpus, path: str | os.PathLike) -> None:
    atomic_write_text(path, dumps_corpus(corpus))


def load_corpus(path: str | os.PathLike) -> Corpus:
    with open(path, encoding="utf-8") as handle:
        return loads_corpus(handle.read())


def load_year_sidecar(source: str | os.PathLike | IO[str]) -> dict[int, int]:
    """Read a ``doc_id,year`` CSV sidecar into a map."""
    if hasattr(source, "read"):
        return _parse_year_rows(source)
    with open(source, encoding="utf-8", newline="") as handle:
        return _parse_year_rows(handle)


def _parse_year_rows(handle: IO[str]) -> dict[int, int]:
    reader = csv.reader(handle)
    try:
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["doc_id", "year"]:
            raise ParseError("expected header 'doc_id,year'", line=1)
        years: dict[int, int] = {}
        for row in reader:
            lineno = reader.line_num  # the physical line the row ends on
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"expected two columns, got {len(row)}", line=lineno)
            try:
                doc_id, year = int(row[0]), int(row[1])
            except ValueError:
                raise ParseError(f"non-integer row {row!r}", line=lineno) from None
            if doc_id in years:
                raise ParseError(f"duplicate doc_id {doc_id}", line=lineno)
            years[doc_id] = year
    except csv.Error as exc:  # e.g. a bare carriage return when not opened with newline=""
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    return years
