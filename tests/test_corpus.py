import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import docmix.corpus
from docmix.corpus import (
    Corpus,
    Vocabulary,
    dump_bag_of_words,
    dumps_corpus,
    load_corpus,
    load_year_sidecar,
    loads_corpus,
    parse_bag_of_words,
    prune_vocabulary,
    save_corpus,
)
from docmix.errors import EmptyVocabularyError, FormatError, ParseError

from conftest import DOCWORD_TEXT, TINY_DOCS, VOCAB_TEXT, doc_rows


class TestParse:
    def test_golden_counts(self):
        corpus = parse_bag_of_words(DOCWORD_TEXT.splitlines(), VOCAB_TEXT.splitlines())
        assert corpus.num_docs == 3
        assert corpus.num_words == 5
        assert doc_rows(corpus)[0] == {0: 3, 1: 1}
        assert doc_rows(corpus)[1] == {1: 2, 2: 2, 3: 1}
        assert doc_rows(corpus)[2] == {0: 1}
        assert corpus.doc_ids == [1, 2, 3]
        assert corpus.total_tokens == 10
        assert corpus.vocab.words == ("alpha", "beta", "gamma", "delta", "eps")

    def test_repeated_triples_accumulate(self):
        text = "1\n2\n2\n1 1 2\n1 1 3\n"
        corpus = parse_bag_of_words(text.splitlines(), "a\nb\n".splitlines())
        assert doc_rows(corpus)[0] == {0: 5}

    def test_header_not_integer(self):
        with pytest.raises(ParseError) as err:
            parse_bag_of_words("x\n5\n0\n".splitlines(), VOCAB_TEXT.splitlines())
        assert err.value.line == 1

    def test_truncated_header(self):
        with pytest.raises(ParseError):
            parse_bag_of_words("3\n5\n".splitlines(), VOCAB_TEXT.splitlines())

    def test_bad_triple_arity(self):
        with pytest.raises(ParseError) as err:
            parse_bag_of_words("1\n2\n1\n1 1\n".splitlines(), "a\nb\n".splitlines())
        assert err.value.line == 4

    def test_nonpositive_count(self):
        with pytest.raises(ValueError):
            parse_bag_of_words("1\n2\n1\n1 1 0\n".splitlines(), "a\nb\n".splitlines())

    def test_word_id_out_of_range(self):
        with pytest.raises(IndexError):
            parse_bag_of_words("1\n2\n1\n1 3 1\n".splitlines(), "a\nb\n".splitlines())

    def test_doc_id_out_of_range(self):
        with pytest.raises(IndexError):
            parse_bag_of_words("1\n2\n1\n2 1 1\n".splitlines(), "a\nb\n".splitlines())

    def test_vocab_size_mismatch(self):
        with pytest.raises(ParseError):
            parse_bag_of_words("1\n3\n1\n1 1 1\n".splitlines(), "a\nb\n".splitlines())

    def test_triple_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_bag_of_words("1\n2\n2\n1 1 1\n".splitlines(), "a\nb\n".splitlines())

    def test_bad_line_after_blank_line(self):
        # np.loadtxt does not count blank lines, so its row 1 is line 6 here
        with pytest.raises(ParseError) as err:
            parse_bag_of_words("1\n2\n2\n1 1 1\n\n1 x 1\n".splitlines(), "a\nb\n".splitlines())
        assert err.value.line == 6

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", str(2**63)])
    def test_int_spellings_beyond_ascii_int64_are_parse_errors(self, token):
        # int() accepts these; the grammar is ASCII decimal within int64
        with pytest.raises(ParseError) as err:
            parse_bag_of_words(f"1\n2\n1\n{token} 1 1\n".splitlines(), "a\nb\n".splitlines())
        assert err.value.line == 4

    def test_line_break_inside_an_item_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_bag_of_words(["1", "2", "1", "1 1\r1"], ["a", "b"])
        assert err.value.line == 4

    def test_non_ascii_letters_are_not_digits(self):
        # np.loadtxt alone would read "5\u2660" as the integer 9826
        with pytest.raises(ParseError) as err:
            parse_bag_of_words("9999\n2\n1\n5\u2660 1 1\n".splitlines(), "a\nb\n".splitlines())
        assert err.value.line == 4


def _reference_parse(docword_lines, vocab_lines) -> Corpus:
    """The per-line parser that ``parse_bag_of_words`` replaced, kept as the
    reference it must agree with."""
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

    docs_by_id: dict[int, dict[int, int]] = {}
    seen = 0
    for line in lines:
        lineno += 1
        text = line.strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'docID wordID count', got {text!r}", line=lineno)
        try:
            doc_id, word_id, count = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer triple {text!r}", line=lineno) from None
        seen += 1
        if seen > num_triples:
            raise ParseError(f"more than the declared {num_triples} triples", line=lineno)
        if not 1 <= doc_id <= num_docs:
            raise IndexError(f"line {lineno}: doc id {doc_id} out of range 1..{num_docs}")
        if not 1 <= word_id <= num_words:
            raise IndexError(f"line {lineno}: word id {word_id} out of range 1..{num_words}")
        if not 0 < count < 2**53:
            raise ValueError(f"line {lineno}: count must be positive and below 2**53, got {count}")
        doc = docs_by_id.setdefault(doc_id, {})
        index = word_id - 1
        doc[index] = doc.get(index, 0) + count
    if seen < num_triples:
        raise ParseError(f"declared {num_triples} triples but found {seen}", line=lineno)

    tokens = []
    for vocab_lineno, line in enumerate(vocab_lines, start=1):
        token = line.strip()
        if not token:
            raise ParseError("empty vocabulary token", line=vocab_lineno)
        tokens.append(token)
    if len(tokens) != num_words:
        raise ParseError(
            f"vocabulary has {len(tokens)} tokens but the docword header declares {num_words}"
        )

    doc_ids = sorted(docs_by_id)
    return Corpus.from_docs(
        vocab=Vocabulary(tuple(tokens)),
        docs=[docs_by_id[i] for i in doc_ids],
        doc_ids=doc_ids,
    )


def _parse_outcome(parse, docword, vocab):
    """What a parser makes of the streams: the corpus as bytes, or the
    error's type with its line (ParseError) or message (the others)."""
    try:
        corpus = parse(docword, vocab)
    except ParseError as exc:
        return ParseError, exc.line
    except (IndexError, ValueError) as exc:
        return type(exc), str(exc)
    matrix = corpus.csr()
    return (corpus.doc_ids, corpus.vocab.words,
            *((a.dtype.str, a.tobytes()) for a in (matrix.indptr, matrix.indices, matrix.data)))


_ids = st.integers(-1, 5)
_counts = st.integers(1, 9) | st.sampled_from([-1, 0, 2**53 - 1, 2**53])
_gaps = st.sampled_from([" ", "\t", "  ", " \t ", "\xa0"])
_triple_lines = st.builds(
    lambda doc, word, count, gap, pad: pad + gap.join(map(str, (doc, word, count))) + pad,
    _ids, _ids, _counts, _gaps, st.sampled_from(["", " ", "\t"]),
)
_docword_body_lines = st.lists(
    _triple_lines
    | st.sampled_from(["", " ", "\t", " \t  ", "1 1", "1 1 1 1", "1 x 1", "1 1.5 1", "+ 1 1",
                       "1 1 0x1", "\u00e9 1 1", "1 1 1 #"])
    | st.text("0123456789 -+x\t", max_size=8),
    max_size=12,
)


@given(num_docs=st.integers(0, 4), num_words=st.integers(1, 4),
       body=_docword_body_lines, surplus=st.integers(-2, 2),
       extra_vocab=st.booleans(), newlines=st.booleans(), batch=st.integers(1, 4))
@example(num_docs=1, num_words=2, body=["5 1 1"], surplus=1, extra_vocab=False,
         newlines=False, batch=4)  # the surplus triple is reported before its range
@settings(max_examples=300, deadline=None)
def test_parse_matches_reference(num_docs, num_words, body, surplus, extra_vocab,
                                 newlines, batch):
    # the header declares ``surplus`` fewer triples than the body holds
    declared = max(0, sum(1 for line in body if line.strip()) - surplus)
    docword = [str(num_docs), str(num_words), str(declared), *body]
    vocab = [f"t{b}" for b in range(num_words + extra_vocab)]
    if newlines:  # file lines end in a newline, splitlines() items do not
        docword = [line + "\n" for line in docword]
    expected = _parse_outcome(_reference_parse, docword, vocab)
    # small batches put batch boundaries between the few lines drawn here
    with mock.patch.object(docmix.corpus, "_BATCH_LINES", batch):
        assert _parse_outcome(parse_bag_of_words, docword, vocab) == expected


@st.composite
def corpora(draw):
    num_words = draw(st.integers(2, 6))
    num_docs = draw(st.integers(1, 5))
    docs = []
    for _ in range(num_docs):
        support = draw(
            st.lists(st.integers(0, num_words - 1), min_size=1,
                     max_size=num_words, unique=True))
        docs.append({b: draw(st.integers(1, 9)) for b in support})
    vocab = Vocabulary(words=tuple(f"t{i}" for i in range(num_words)))
    return Corpus.from_docs(vocab, docs, doc_ids=list(range(1, num_docs + 1)))


@given(corpora())
@settings(max_examples=40, deadline=None)
def test_bag_of_words_round_trip(corpus):
    docword, vocab_text = dump_bag_of_words(corpus)
    back = parse_bag_of_words(docword.splitlines(), vocab_text.splitlines())
    assert doc_rows(back) == doc_rows(corpus)
    assert back.vocab.words == corpus.vocab.words


@given(corpora())
@settings(max_examples=40, deadline=None)
def test_json_round_trip(corpus):
    back = loads_corpus(dumps_corpus(corpus))
    assert doc_rows(back) == doc_rows(corpus)
    assert back.doc_ids == corpus.doc_ids
    assert back.vocab.words == corpus.vocab.words
    assert back.dropped_doc_ids == corpus.dropped_doc_ids


class TestPrune:
    def build(self):
        vocab = Vocabulary(words=("common", "mid", "rare", "solo"))
        # "common" appears in 4/4 docs, "mid" in 2/4, "rare" in 1/4
        docs = [
            {0: 5, 1: 1},
            {0: 4, 1: 2},
            {0: 3, 2: 1},
            {0: 2, 3: 6},
        ]
        return Corpus.from_docs(vocab, docs, doc_ids=[1, 2, 3, 4])

    def test_fraction_is_strict(self):
        corpus = self.build()
        pruned = prune_vocabulary(corpus, max_doc_fraction=1.0, top_b=4)
        assert pruned.vocab.words == ("common", "mid", "rare", "solo")
        pruned = prune_vocabulary(corpus, max_doc_fraction=0.99, top_b=4)
        assert "common" not in pruned.vocab.words

    def test_top_b_orders_by_total_then_index(self):
        corpus = self.build()
        # totals after dropping "common": solo=6, mid=3, rare=1; the two
        # survivors keep their original relative order
        pruned = prune_vocabulary(corpus, max_doc_fraction=0.9, top_b=2)
        assert pruned.vocab.words == ("mid", "solo")

    def test_emptied_docs_dropped_and_remembered(self):
        corpus = self.build()
        pruned = prune_vocabulary(corpus, max_doc_fraction=0.9, top_b=1)
        # only "solo" kept, so docs 1..3 become empty
        assert pruned.vocab.words == ("solo",)
        assert pruned.num_docs == 1
        assert pruned.dropped_doc_ids == [1, 2, 3]

    def test_idempotent_under_doc_loss(self):
        # the document-fraction denominator includes dropped documents, so
        # pruning twice with the same settings changes nothing
        corpus = self.build()
        once = prune_vocabulary(corpus, max_doc_fraction=0.6, top_b=4)
        twice = prune_vocabulary(once, max_doc_fraction=0.6, top_b=4)
        assert twice.vocab.words == once.vocab.words
        assert doc_rows(twice) == doc_rows(once)

    def test_everything_pruned_raises(self):
        corpus = self.build()
        with pytest.raises(EmptyVocabularyError):
            prune_vocabulary(corpus, max_doc_fraction=0.1, top_b=4)

    def test_zero_count_word_never_kept(self):
        # room for every word, yet "ghost", in no document, is not one of them
        corpus = Corpus.from_docs(Vocabulary(("a", "ghost", "b")), [{0: 2}, {2: 1}, {0: 1}],
                                  doc_ids=[1, 2, 3])
        pruned = prune_vocabulary(corpus, max_doc_fraction=1.0, top_b=3)
        assert pruned.vocab.words == ("a", "b")
        assert doc_rows(pruned) == [{0: 2}, {1: 1}, {0: 1}]

    def test_every_document_emptied_raises(self):
        # the one occurring word is in both documents; no zero-count word stands in
        corpus = Corpus.from_docs(Vocabulary(("common", "ghost")), [{0: 3}, {0: 2}],
                                  doc_ids=[1, 2])
        with pytest.raises(EmptyVocabularyError,
                           match="no word occurs in at most 80% of documents"):
            prune_vocabulary(corpus, max_doc_fraction=0.8, top_b=2)


class TestPersistence:
    def test_save_load(self, tmp_path, tiny_corpus):
        path = tmp_path / "c.json"
        save_corpus(tiny_corpus, path)
        back = load_corpus(path)
        assert doc_rows(back) == doc_rows(tiny_corpus)
        assert back.doc_ids == tiny_corpus.doc_ids

    def test_not_json(self):
        for text in ["{not json", "[" * 100_000]:  # the second one nests too deeply
            with pytest.raises(FormatError, match="not valid JSON"):
                loads_corpus(text)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_bare_constant_is_not_json(self, tiny_corpus, constant):
        blob = json.loads(dumps_corpus(tiny_corpus))
        blob["docs"][0][1][0] = float(constant)
        with pytest.raises(FormatError, match=f"not valid JSON .*: bare {constant} "):
            loads_corpus(json.dumps(blob))

    def test_wrong_format_tag(self, tiny_corpus):
        blob = json.loads(dumps_corpus(tiny_corpus))
        blob["format"] = "other"
        with pytest.raises(FormatError):
            loads_corpus(json.dumps(blob))

    def test_wrong_version(self, tiny_corpus):
        blob = json.loads(dumps_corpus(tiny_corpus))
        blob["version"] = 99
        with pytest.raises(FormatError):
            loads_corpus(json.dumps(blob))

    def test_missing_field(self, tiny_corpus):
        blob = json.loads(dumps_corpus(tiny_corpus))
        del blob["docs"]
        with pytest.raises(FormatError):
            loads_corpus(json.dumps(blob))

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda blob: blob["docs"][0][0].append(4), id="ragged-pair"),
        pytest.param(lambda blob: blob["docs"].__setitem__(0, [[0, 0], [1, 7]]),
                     id="repeated-word-index"),
        pytest.param(lambda blob: blob["docs"][0][1].__setitem__(0, 2.7), id="float-count"),
        pytest.param(lambda blob: blob["docs"][0][1].__setitem__(0, True), id="bool-count"),
        pytest.param(lambda blob: blob["words"].__setitem__(0, 7), id="non-string-token"),
        # five letters for five words: the string would load as the vocabulary
        pytest.param(lambda blob: blob.__setitem__("words", "abcde"), id="string-vocabulary"),
        pytest.param(lambda blob: blob.__setitem__("doc_years", [[1, 1990], [1, 1991]]),
                     id="non-null-doc-years"),
        pytest.param(lambda blob: blob.__setitem__("dropped_doc_ids", [9, 9]),
                     id="repeated-dropped-doc-id"),
        pytest.param(lambda blob: blob.__setitem__("dropped_doc_ids", [1]),
                     id="dropped-doc-id-retained"),
        # document lengths of 2**63 and 2**60: float64 sums are exact only below 2**53
        pytest.param(lambda blob: blob["docs"].__setitem__(0, [[0, 1], [2**62, 2**62]]),
                     id="length-wraps-int64"),
        pytest.param(lambda blob: blob["docs"].__setitem__(0, [[0], [2**60]]),
                     id="length-past-2-53"),
        # True == 1 == 1.0: only the integer 1 is version 1
        pytest.param(lambda blob: blob.__setitem__("version", True), id="bool-version"),
        pytest.param(lambda blob: blob.__setitem__("version", 1.0), id="float-version"),
    ])
    def test_corrupt_container_rejected(self, tiny_corpus, corrupt):
        blob = json.loads(dumps_corpus(tiny_corpus))
        corrupt(blob)
        with pytest.raises(FormatError):
            loads_corpus(json.dumps(blob))


class TestYearSidecar:
    def test_golden(self):
        years = load_year_sidecar(io.StringIO("doc_id,year\n1,1987\n2,2015\n"))
        assert years == {1: 1987, 2: 2015}

    def test_duplicate_doc_id(self):
        with pytest.raises(ParseError):
            load_year_sidecar(io.StringIO("doc_id,year\n1,1987\n1,1988\n"))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_year_sidecar(io.StringIO("id,year\n1,1987\n"))

    def test_bad_row_has_line_number(self):
        # a quoted field spanning two lines moves the bad row to line 4
        for text, line in [("doc_id,year\n1,1987\n2,oops\n", 3),
                           ('doc_id,year\n"1\n",1987\n2,oops\n', 4)]:
            with pytest.raises(ParseError) as err:
                load_year_sidecar(io.StringIO(text))
            assert err.value.line == line
            assert str(err.value) == f"line {line}: non-integer row ['2', 'oops']"


class TestValidation:
    def test_zero_count_rejected(self):
        vocab = Vocabulary(words=("a", "b"))
        with pytest.raises(ValueError):
            Corpus.from_docs(vocab, [{0: 0}], doc_ids=[1])

    def test_out_of_range_word(self):
        vocab = Vocabulary(words=("a", "b"))
        with pytest.raises(IndexError):
            Corpus.from_docs(vocab, [{2: 1}], doc_ids=[1])

    def test_empty_doc_rejected(self):
        vocab = Vocabulary(words=("a", "b"))
        with pytest.raises(ValueError):
            Corpus.from_docs(vocab, [{}], doc_ids=[1])

    def test_duplicate_doc_ids(self):
        vocab = Vocabulary(words=("a", "b"))
        with pytest.raises(ValueError):
            Corpus.from_docs(vocab, [{0: 1}, {1: 1}], doc_ids=[1, 1])

    def test_duplicate_tokens(self):
        with pytest.raises(ValueError):
            Vocabulary(words=("a", "a"))

    @pytest.mark.parametrize("source", ["from_docs", "json"])
    def test_unsorted_row_is_sorted(self, source):
        vocab = Vocabulary(words=("a", "b", "c"))
        corpus = Corpus.from_docs(vocab, [{2: 3, 0: 1}], doc_ids=[1])
        if source == "json":
            blob = json.loads(dumps_corpus(corpus))
            blob["docs"] = [[[2, 0], [3, 1]]]
            corpus = loads_corpus(json.dumps(blob))
        assert corpus.counts.indices.tolist() == [0, 2]
        assert corpus.counts.data.tolist() == [1.0, 3.0]
        assert (corpus.counts.indices.dtype, corpus.counts.data.dtype) == (np.int32, np.float64)


def test_csr_matches_docs(tiny_corpus):
    mat = tiny_corpus.csr()
    assert mat.shape == (6, 5)
    dense = mat.toarray()
    for l, doc in enumerate(TINY_DOCS):
        for b in range(5):
            assert dense[l, b] == doc.get(b, 0)
    assert tiny_corpus.csr() is mat


def test_word_totals(tiny_corpus):
    totals = tiny_corpus.word_totals()
    assert totals.sum() == tiny_corpus.total_tokens
    assert totals[0] == 3 + 1 + 2
    assert totals.tolist() == [sum(doc.get(b, 0) for doc in TINY_DOCS) for b in range(5)]
    assert tiny_corpus.doc_lengths == [sum(doc.values()) for doc in TINY_DOCS]
