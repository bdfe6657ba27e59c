"""Fuzzing of the persisted-format readers.

Every reader of a persisted format rejects bad input with a DocmixError,
ValueError or IndexError, which the CLI turns into exit code 2, and never
fails with any other exception. Inputs are valid payloads, truncated or
with some nodes replaced by arbitrary JSON, and lines of text over each
format's alphabet.
"""

import dataclasses
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from docmix.cli import load_synth_config
from docmix.corpus import (
    Corpus,
    Vocabulary,
    dumps_corpus,
    load_year_sidecar,
    loads_corpus,
    parse_bag_of_words,
)
from docmix.errors import DocmixError
from docmix.mixture import dumps_model, loads_model
from docmix.selection import SweepEntry, SweepResult, sweep_from_csv, sweep_to_csv

from conftest import DOCWORD_TEXT, TINY_DOCS, VOCAB_TEXT, random_model

READ_ERRORS = (DocmixError, ValueError, IndexError)
EXAMPLES = settings(max_examples=100, deadline=None)

CORPUS_TEXT = dumps_corpus(dataclasses.replace(
    Corpus.from_docs(Vocabulary(("alpha", "beta", "gamma", "delta", "eps")), TINY_DOCS[:4],
                     doc_ids=[2, 3, 5, 7]),
    dropped_doc_ids=[4],
))
MODEL_TEXT = dumps_model(random_model(2, 4, 100, seed=0))
SWEEP_TEXT = sweep_to_csv(SweepResult(entries=(SweepEntry(1, 4, 120.5),
                                               SweepEntry(2, 9, 101.25))))

scalars = (st.sampled_from([2**63, -(10**400)]) | st.integers() | st.floats() | st.none()
           | st.booleans() | st.text(max_size=4))
json_values = scalars | st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)


def _paths(value, path=()):
    """Every node of a JSON value, as the key path that reaches it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def broken(data, text: str) -> str:
    """A valid payload truncated, or with one to three nodes replaced by
    arbitrary JSON (integers beyond 64 bits included)."""
    if data.draw(st.booleans()):
        return text[:data.draw(st.integers(0, len(text)))]
    payload = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(payload))[1:]))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(json_values)
    return json.dumps(payload)


def reads_or_rejects(reader, *args):
    try:
        reader(*args)
    except READ_ERRORS:
        pass


@given(st.data())
@EXAMPLES
def test_loads_corpus(data):
    reads_or_rejects(loads_corpus, broken(data, CORPUS_TEXT))


@given(st.data())
@EXAMPLES
def test_loads_model(data):
    reads_or_rejects(loads_model, broken(data, MODEL_TEXT))


docword_lines = st.lists(
    st.sampled_from(DOCWORD_TEXT.splitlines()) | st.text("0123456789 -+.x\t", max_size=8),
    max_size=10,
)
vocab_lines = st.lists(
    st.sampled_from(VOCAB_TEXT.splitlines()) | st.text(max_size=3), max_size=7,
)


@given(docword_lines, vocab_lines)
@EXAMPLES
def test_parse_bag_of_words(docword, vocab):
    reads_or_rejects(parse_bag_of_words, docword, vocab)


sweep_rows = st.lists(
    st.sampled_from(SWEEP_TEXT.splitlines())
    | st.lists(st.text('0123456789.e-+" naif\r', max_size=6), max_size=4).map(",".join),
    max_size=6,
).map("\n".join)


@given(sweep_rows | st.integers(0, len(SWEEP_TEXT)).map(lambda n: SWEEP_TEXT[:n]))
@example("K,D_K,min_contrast\n1,2\r0,3.5\n")
@example("9" * 200_000 + ",2,3.5\n")  # over the csv module's field size limit
@EXAMPLES
def test_sweep_from_csv(text):
    reads_or_rejects(sweep_from_csv, text)


year_fields = st.text('0123456789,"-+ x\t\r\n\x00', max_size=8)
year_rows = st.builds(
    lambda header, rows: "\n".join([header, *rows]),
    st.just("doc_id,year") | year_fields,
    st.lists(st.sampled_from(["1,1987", "2,2015", ""]) | year_fields, max_size=5),
)


@given(year_rows, st.sampled_from(["", "\n"]))
@example("doc_id,year\n1,19\r87", "\n")
@EXAMPLES
def test_load_year_sidecar(text, newline):
    # newline="" is how the CLI opens the file; "\n" is io.StringIO's default
    reads_or_rejects(load_year_sidecar, io.StringIO(text, newline=newline))


SYNTH_TEXT = json.dumps({
    "schema_version": 1, "k_true": 2, "num_words": 10, "num_docs": 30,
    "length_range": [20, 50], "min_pairwise_kl": 1.0, "concentration": 0.5,
    "seeds": [0, 1], "ladder": [1, 2, 3], "mode": "bic",
    "em": {"n_starts": 4, "annihilation": "mml"},
})


# the same config with its ladder given as k_max, and with a list of modes
SYNTH_K_MAX_TEXT = SYNTH_TEXT.replace('"ladder": [1, 2, 3]', '"k_max": 3')
SYNTH_MODES_TEXT = SYNTH_TEXT.replace('"mode": "bic"', '"mode": ["slope", "bic"]')


@given(st.data(), st.sampled_from([SYNTH_TEXT, SYNTH_K_MAX_TEXT, SYNTH_MODES_TEXT]))
@EXAMPLES
def test_load_synth_config(data, base):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "synth.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(broken(data, base))
        reads_or_rejects(load_synth_config, path)
