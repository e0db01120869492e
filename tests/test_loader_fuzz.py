"""Fuzz the JSONL loaders: whatever the lines say, a load either succeeds or
raises DataError (SchemaError is one), never another exception. The lines
include integers past Python's 4300-digit parse limit, nestings too deep to
parse, and biased records whose bias token may break the dataset's rules; a
dataset that loads must keep those rules. The dataset and weights loaders
read in blocks of synthgen._BLOCK lines: blocks of 1 and 2 lines must give
what a block larger than the file gives, the same columns or the same first
DataError, and the weights loader what its per-record reference gives."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debias_forge import synthgen
from debias_forge.errors import DataError, read_json_lines
from debias_forge.shallow import BiasWeights, load_bias_weights
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


def _outcome(loader, path, lines):
    """What loading lines gives: the loaded columns as lists, or the DataError's message."""
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        got = loader(path)
    except DataError as e:
        return str(e)
    if isinstance(got, BiasWeights):
        return [a.tolist() for a in (got.ids, got.p_b, got.p_b_correct, got.predicted)]
    return list(got.examples), got.num_labels, got.vocab_size, got.provenance


def _same_at_every_block(loader, path, lines):
    """The outcome at the default block, larger than the file, once blocks
    of 1 and 2 lines are seen to give it too."""
    whole = _outcome(loader, path, lines)
    for block in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthgen, "_BLOCK", block)
            assert _outcome(loader, path, lines) == whole, block
    return whole


def _per_record_bias_weights(path, num_labels):
    """The per-record loop load_bias_weights checks as: each rule in turn on
    one record, then the next record."""
    ids, p_b, p_correct, predicted, seen = [], [], [], [], set()
    for lineno, rec in read_json_lines(path):
        try:
            ex_id, p, c, k = rec["id"], rec["p_b"], rec["p_b_correct"], rec["predicted"]
        except (KeyError, TypeError) as e:
            raise DataError(f"{path}:{lineno}: malformed weights record: {e!r}") from e
        if type(ex_id) is not int:
            raise DataError(f"{path}:{lineno}: id must be an integer, got {ex_id!r}")
        if not -2**63 <= ex_id < 2**63:
            raise DataError(f"{path}:{lineno}: id {ex_id} outside the int64 range "
                            f"[-2**63, 2**63)")
        if not isinstance(p, list) or len(p) != num_labels:
            raise DataError(f"{path}:{lineno}: p_b length != num_labels {num_labels}")
        if not (all(type(q) in (int, float) and 0.0 <= q <= 1.0 for q in p)
                and abs(sum(p) - 1.0) <= 1e-6):
            raise DataError(f"{path}:{lineno}: p_b must be probabilities in [0, 1] "
                            f"summing to 1, got {p}")
        if not (type(c) in (int, float) and 0.0 <= c <= 1.0):
            raise DataError(f"{path}:{lineno}: p_b_correct must be a probability in "
                            f"[0, 1], got {c!r}")
        if not (type(k) is int and 0 <= k < num_labels):
            raise DataError(f"{path}:{lineno}: predicted must be a label in "
                            f"[0, {num_labels}), got {k!r}")
        if ex_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {ex_id}")
        seen.add(ex_id)
        ids.append(ex_id)
        p_b.append(p)
        p_correct.append(c)
        predicted.append(k)
    order = np.argsort(np.array(ids, np.int64))
    return BiasWeights(np.array(ids, np.int64)[order],
                       np.array(p_b, np.float64).reshape(-1, num_labels)[order],
                       np.array(p_correct, np.float64)[order],
                       np.array(predicted, np.int64)[order])


def _check_bias_tokens(dataset):
    for ex in dataset.examples if dataset else []:
        if ex.bias_tag != "clean":
            assert ex.segment_b[:1] == (ex.bias_token,)
            assert (ex.bias_token == ex.label) == (ex.bias_tag == "biased")


@FUZZ
@given(header=HEADERS, lines=st.lists(DATASET_LINES, max_size=4))
def test_load_dataset_raises_only_data_errors(path, header, lines):
    _check_bias_tokens(_load(load_dataset, path, [header] + lines))
    _same_at_every_block(load_dataset, path, [header] + lines)


@FUZZ
@given(lines=st.lists(_tagged_records(), min_size=1, max_size=2))
def test_loaded_bias_tokens_keep_the_rules(path, lines):
    _check_bias_tokens(_load(load_dataset, path, [HEADER] + lines))


@FUZZ
@given(lines=st.lists(WEIGHTS_LINES, max_size=4))
def test_load_bias_weights_raises_only_data_errors(path, lines):
    _load(lambda p: load_bias_weights(p, 3), path, lines)
    assert _same_at_every_block(lambda p: load_bias_weights(p, 3), path, lines) == _outcome(
        lambda p: _per_record_bias_weights(p, 3), path, lines)


@FUZZ
@given(lines=st.lists(METRICS_LINES, max_size=4))
def test_read_metrics_raises_only_data_errors(path, lines):
    records = _load(read_metrics, path, lines)
    assert all(type(rec) is dict for rec in records or [])


def _example_line(i, label=0):
    return json.dumps({"id": i, "segment_a": [9], "segment_b": [10], "label": label,
                       "bias_tag": "clean", "bias_token": None})


def _weights_line(i, predicted=2):
    return json.dumps({"id": i, "p_b": [0.2, 0.3, 0.5], "p_b_correct": 0.5,
                       "predicted": predicted})


# (lines swapped into five good ones, by index) -> the first failing line's
# index and its message; at blocks of 2 the lines fall into blocks
# [0, 1], [2, 3], [4]
BAD_LABEL, BAD_PREDICTED = _example_line(7, label=5), _weights_line(7, predicted=5)
HAND_CASES = [
    ({0: "line"}, 0),  # first in every block
    ({1: "line"}, 1),  # last in a block
    ({2: "line"}, 2),  # first in a later block
    ({4: "line"}, 4),  # last in the file
    ({3: "dup"}, 3),  # a duplicate of an id in an earlier block
    ({1: "line", 2: "{}"}, 1),  # a rule broken before a malformed line
    ({1: "line", 2: "[1, "}, 1),  # and before a line that is not JSON
    ({1: "{}", 2: "line"}, 1),  # a malformed line before a broken rule
]


@pytest.mark.parametrize("swaps,first", HAND_CASES)
def test_dataset_blocks_report_the_first_failing_line(path, swaps, first):
    lines = [_example_line(i) for i in range(5)]
    for i, kind in swaps.items():
        lines[i] = {"line": BAD_LABEL, "dup": _example_line(0)}.get(kind, kind)
    got = _same_at_every_block(load_dataset, path, [HEADER] + lines)
    kind = swaps[first]
    want = {"line": "label 5 outside [0, 3)", "dup": "id must be an integer not seen before, "
            "got 0", "{}": "malformed example: KeyError('segment_a')"}[kind]
    assert got.startswith(f"{path}:{first + 2}: {want}")  # the header is line 1


@pytest.mark.parametrize("swaps,first", HAND_CASES)
def test_weights_blocks_report_the_first_failing_line(path, swaps, first):
    lines = [_weights_line(i) for i in range(5)]
    for i, kind in swaps.items():
        lines[i] = {"line": BAD_PREDICTED, "dup": _weights_line(0)}.get(kind, kind)
    got = _same_at_every_block(lambda p: load_bias_weights(p, 3), path, lines)
    kind = swaps[first]
    want = {"line": "predicted must be a label in [0, 3), got 5", "dup": "duplicate id 0",
            "{}": "malformed weights record: KeyError('id')"}[kind]
    assert got.startswith(f"{path}:{first + 1}: {want}")


def test_weights_of_a_huge_label_count_are_refused_by_their_length(path):
    """A dataset header may declare 2**40 labels: the weights loader refuses
    a p_b of another length without building one of that length."""
    got = _same_at_every_block(lambda p: load_bias_weights(p, 2**40), path, [_weights_line(0)])
    assert got == f"{path}:1: p_b length != num_labels {2**40}"


def test_blocks_of_a_valid_file_load_whole(path):
    """Good files of 0 to 5 lines, the block count's edges among them."""
    for n in range(6):
        dataset = _same_at_every_block(
            load_dataset, path, [HEADER] + [_example_line(i) for i in range(n)])
        assert [ex.id for ex in dataset[0]] == list(range(n))
        weights = _same_at_every_block(lambda p: load_bias_weights(p, 3), path,
                                       [_weights_line(i) for i in range(n)][::-1])
        assert weights[0] == list(range(n))
