"""Fuzz the JSONL loaders: whatever the lines say, a load either succeeds or
raises DataError (SchemaError is one), never another exception. The lines
include integers past Python's 4300-digit parse limit, nestings too deep to
parse, and biased records whose bias token may break the dataset's rules; a
dataset that loads must keep those rules."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from debias_forge.errors import DataError
from debias_forge.shallow import load_bias_weights
from debias_forge.synthgen import BIAS_TAGS, load_dataset
from debias_forge.trainer import read_metrics

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


@st.composite
def _tagged_records(draw):
    """A biased or anti_biased record that keeps the bias-token rules unless
    a draw breaks one: the token leads segment_b, and it is the label exactly
    when the record is biased."""
    label, tag = draw(st.integers(0, 2)), draw(st.sampled_from(["biased", "anti_biased"]))
    token = draw(st.sampled_from([label, (label + 1) % 3, 59]))
    lead = draw(st.sampled_from([[token], [token], [], [(token + 1) % 60]]))
    return json.dumps({"id": draw(st.integers(0, 3)), "segment_a": draw(TOKENS),
                       "segment_b": lead + draw(TOKENS), "label": label,
                       "bias_tag": tag, "bias_token": token})


# JSON text that json.loads rejects with ValueError or RecursionError
UNPARSABLE = st.sampled_from(["9" * 4301, "-" + "1" * 6000, "[" * 100_000,
                              "{\"a\": " * 50_000])


@st.composite
def _with_unparsable(draw, valid):
    """A valid line with one value swapped for unparsable JSON text."""
    rec = json.loads(draw(valid))
    key = draw(st.sampled_from(sorted(rec))) if rec else "id"
    rec[key] = "@@"
    return json.dumps(rec).replace('"@@"', draw(UNPARSABLE))


HEADER = json.dumps({"num_labels": 3, "vocab_size": 60})
DATASET_RECORDS = _records({
    "id": st.integers(0, 3), "segment_a": TOKENS, "segment_b": TOKENS,
    "label": st.integers(0, 2), "bias_tag": st.sampled_from(BIAS_TAGS),
    "bias_token": st.none() | st.integers(0, 59)}) | _tagged_records()
DATASET_LINES = st.text() | DATASET_RECORDS | _with_unparsable(DATASET_RECORDS)
WEIGHTS_RECORDS = _records({
    "id": st.integers(0, 3), "p_b": PROBS | st.just([0.2, 0.3, 0.5]),
    "p_b_correct": st.floats(0, 1), "predicted": st.integers(0, 2)})
WEIGHTS_LINES = st.text() | WEIGHTS_RECORDS | _with_unparsable(WEIGHTS_RECORDS)
METRICS_RECORDS = _records({"step": st.integers(0, 9), "acc_original": st.floats(0, 1)})
METRICS_LINES = (st.text() | VALUES.map(json.dumps) | METRICS_RECORDS
                 | _with_unparsable(METRICS_RECORDS))
HEADERS = (st.just(HEADER) | st.text()
           | _with_unparsable(st.just(HEADER)) | UNPARSABLE)
FUZZ = settings(max_examples=200, deadline=None)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file.jsonl"


def _load(loader, path, lines):
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        return loader(path)
    except DataError:
        return None


def _check_bias_tokens(dataset):
    for ex in dataset.examples if dataset else []:
        if ex.bias_tag != "clean":
            assert ex.segment_b[:1] == (ex.bias_token,)
            assert (ex.bias_token == ex.label) == (ex.bias_tag == "biased")


@FUZZ
@given(header=HEADERS, lines=st.lists(DATASET_LINES, max_size=4))
def test_load_dataset_raises_only_data_errors(path, header, lines):
    _check_bias_tokens(_load(load_dataset, path, [header] + lines))


@FUZZ
@given(lines=st.lists(_tagged_records(), min_size=1, max_size=2))
def test_loaded_bias_tokens_keep_the_rules(path, lines):
    _check_bias_tokens(_load(load_dataset, path, [HEADER] + lines))


@FUZZ
@given(lines=st.lists(WEIGHTS_LINES, max_size=4))
def test_load_bias_weights_raises_only_data_errors(path, lines):
    _load(lambda p: load_bias_weights(p, 3), path, lines)


@FUZZ
@given(lines=st.lists(METRICS_LINES, max_size=4))
def test_read_metrics_raises_only_data_errors(path, lines):
    records = _load(read_metrics, path, lines)
    assert all(type(rec) is dict for rec in records or [])
