import numpy as np
import pytest

from docmix.corpus import Corpus, Vocabulary
from docmix.em import water_fill_project
from docmix.mixture import MixtureModel


TINY_DOCS = [
    {0: 3, 1: 1},
    {1: 2, 2: 2, 3: 1},
    {0: 1, 4: 4},
    {2: 5},
    {0: 2, 1: 2, 2: 1, 3: 1, 4: 1},
    {3: 3, 4: 2},
]


@pytest.fixture
def tiny_corpus():
    """Six short documents over five words, counts chosen by hand."""
    vocab = Vocabulary(words=("alpha", "beta", "gamma", "delta", "eps"))
    return Corpus.from_docs(vocab, TINY_DOCS, doc_ids=list(range(1, 7)))


def doc_rows(corpus):
    """Each CSR row of the corpus as a {word index: count} dict."""
    matrix = corpus.csr()
    return [
        dict(zip(matrix.indices[a:b].tolist(), matrix.data[a:b].astype(int).tolist()))
        for a, b in zip(matrix.indptr[:-1], matrix.indptr[1:])
    ]


@pytest.fixture
def tiny_model(tiny_corpus):
    eps = 1.0 / tiny_corpus.total_tokens
    rng = np.random.default_rng(7)
    pi = np.array([0.6, 0.4])
    log_f = np.empty((2, 5))
    for k in range(2):
        w = rng.dirichlet(np.ones(5))
        log_f[k] = np.log(water_fill_project(w, eps))
    return MixtureModel(pi=pi, log_f=log_f, epsilon=eps)


def random_model(num_comps, num_words, total_tokens, seed):
    rng = np.random.default_rng(seed)
    eps = 1.0 / total_tokens
    pi = rng.dirichlet(np.ones(num_comps))
    log_f = np.empty((num_comps, num_words))
    for k in range(num_comps):
        log_f[k] = np.log(water_fill_project(rng.dirichlet(np.ones(num_words)), eps))
    return MixtureModel(pi=pi, log_f=log_f, epsilon=eps)


def random_corpus(num_docs, num_words, max_len, seed):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(words=tuple(f"w{b}" for b in range(num_words)))
    docs = []
    for _ in range(num_docs):
        n = int(rng.integers(1, max_len + 1))
        counts = rng.multinomial(n, rng.dirichlet(np.ones(num_words)))
        docs.append({b: int(c) for b, c in enumerate(counts) if c > 0})
    return Corpus.from_docs(vocab, docs, doc_ids=list(range(1, num_docs + 1)))


def sized_corpus(num_docs, num_words, total_tokens):
    """A corpus of exactly these sizes, for pricing a sweep: document l
    holds only word l mod B."""
    base, extra = divmod(total_tokens, num_docs)
    vocab = Vocabulary(words=tuple(f"w{b}" for b in range(num_words)))
    docs = [{l % num_words: base + (l < extra)} for l in range(num_docs)]
    return Corpus.from_docs(vocab, docs, doc_ids=list(range(1, num_docs + 1)))


DOCWORD_TEXT = """3
5
6
1 1 3
1 2 1
2 2 2
2 3 2
2 4 1
3 1 1
"""

VOCAB_TEXT = "alpha\nbeta\ngamma\ndelta\neps\n"


@pytest.fixture
def uci_files(tmp_path):
    docword = tmp_path / "docword.tiny.txt"
    vocab = tmp_path / "vocab.tiny.txt"
    docword.write_text(DOCWORD_TEXT)
    vocab.write_text(VOCAB_TEXT)
    return docword, vocab
