"""Fuzz the JSONL loaders: whatever the lines say, a load either succeeds or
raises DataError (SchemaError is one), never another exception."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from debias_forge.errors import DataError
from debias_forge.shallow import load_bias_weights
from debias_forge.synthgen import BIAS_TAGS, load_dataset

SCALARS = (st.none() | st.booleans() | st.integers(-3, 70) | st.floats()
           | st.sampled_from(BIAS_TAGS) | st.text(max_size=3))
VALUES = (SCALARS | st.lists(SCALARS, max_size=4)
          | st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))
TOKENS = st.lists(st.integers(0, 59), max_size=4)
PROBS = st.lists(st.floats(0, 1), min_size=3, max_size=3)


@st.composite
def _records(draw, fields):
    """A JSON object in which each field is mostly valid, else of any other
    value or missing, so that a record gets past some checks and fails a later one."""
    rec = {}
    for key, valid in fields.items():
        pick = draw(st.integers(0, 9))
        if pick < 7:
            rec[key] = draw(valid)
        elif pick < 9:
            rec[key] = draw(VALUES)
    return json.dumps(rec)


HEADER = json.dumps({"num_labels": 3, "vocab_size": 60})
DATASET_LINES = st.text() | _records({
    "id": st.integers(0, 3), "segment_a": TOKENS, "segment_b": TOKENS,
    "label": st.integers(0, 2), "bias_tag": st.sampled_from(BIAS_TAGS),
    "bias_token": st.none() | st.integers(0, 59)})
WEIGHTS_LINES = st.text() | _records({
    "id": st.integers(0, 3), "p_b": PROBS | st.just([0.2, 0.3, 0.5]),
    "p_b_correct": st.floats(0, 1), "predicted": st.integers(0, 2)})
FUZZ = settings(max_examples=200, deadline=None)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file.jsonl"


def _load(loader, path, lines):
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        loader(path)
    except DataError:
        pass


@FUZZ
@given(header=st.just(HEADER) | st.text(), lines=st.lists(DATASET_LINES, max_size=4))
def test_load_dataset_raises_only_data_errors(path, header, lines):
    _load(load_dataset, path, [header] + lines)


@FUZZ
@given(lines=st.lists(WEIGHTS_LINES, max_size=4))
def test_load_bias_weights_raises_only_data_errors(path, lines):
    _load(lambda p: load_bias_weights(p, 3), path, lines)
