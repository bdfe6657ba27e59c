import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


class TestPersistence:
    def test_save_load(self, tmp_path, tiny_corpus):
        path = tmp_path / "c.json"
        save_corpus(tiny_corpus, path)
        back = load_corpus(path)
        assert doc_rows(back) == doc_rows(tiny_corpus)
        assert back.doc_ids == tiny_corpus.doc_ids

    def test_not_json(self):
        with pytest.raises(FormatError):
            loads_corpus("{not json")

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
    ])
    def test_corrupt_container_rejected(self, tiny_corpus, corrupt):
        blob = json.loads(dumps_corpus(tiny_corpus))
        corrupt(blob)
        with pytest.raises(FormatError):
            loads_corpus(json.dumps(blob))

    def test_years_survive(self, tiny_corpus):
        years = dict.fromkeys(tiny_corpus.doc_ids, 1999)
        with_years = tiny_corpus.with_years(years)
        back = loads_corpus(dumps_corpus(with_years))
        assert back.doc_years == with_years.doc_years


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
