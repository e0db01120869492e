"""The dataset and bias-weights writers format their lines themselves, from
columns; each line must equal json.dumps(record, sort_keys=True) of the record
it stands for, whatever the values."""

import json
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from debias_forge import synthgen
from debias_forge.shallow import BiasWeights, save_bias_weights
from debias_forge.synthgen import BIAS_TAGS, Dataset, Example, save_dataset

INT64 = st.integers(-2**63, 2**63 - 1)
TOKEN = st.integers(0, 2**63 - 1)
SEGMENT = st.lists(TOKEN, max_size=5).map(tuple)
# floats whose shortest text is hardest to read back exactly: the least
# subnormal, the least normal, and neighbours of 0.1 and 1; and -0.0
HARD = [5e-324, 2.2250738585072014e-308, 1.0, 0.9999999999999999, 0.1, 0.9, 0.0, -0.0]
PROB = st.sampled_from(HARD) | st.floats(0, 1)


@st.composite
def _examples(draw):
    tag = draw(st.sampled_from(BIAS_TAGS))
    token = None if tag == "clean" else draw(TOKEN)
    return Example(draw(INT64), draw(SEGMENT), draw(SEGMENT), draw(INT64), tag, token)


@settings(max_examples=100, deadline=None)
@given(examples=st.lists(_examples(), max_size=12))
def test_dataset_lines_are_json_dumps_of_each_example(tmp_path_factory, examples):
    path = tmp_path_factory.mktemp("ds") / "ds.jsonl"
    with mock.patch.object(synthgen, "_BLOCK", 5):  # rows cross block boundaries
        save_dataset(Dataset(examples, 3, 2**63), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    assert lines == [json.dumps(ex._asdict(), sort_keys=True) + "\n" for ex in examples]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(INT64, st.lists(PROB, min_size=3, max_size=3), PROB,
                               st.integers(0, 2)), max_size=12, unique_by=lambda r: r[0]))
def test_weights_lines_are_json_dumps_of_each_record(tmp_path_factory, rows):
    rows.sort()
    ids, p_b, p_correct, predicted = zip(*rows) if rows else [()] * 4
    path = tmp_path_factory.mktemp("w") / "w.jsonl"
    save_bias_weights(BiasWeights(np.array(ids, np.int64), np.array(p_b).reshape(-1, 3),
                                  np.array(p_correct), np.array(predicted, np.int64)), path)
    assert path.read_text(encoding="utf-8").splitlines(keepends=True) == [
        json.dumps({"id": i, "p_b": p, "p_b_correct": c, "predicted": k}, sort_keys=True) + "\n"
        for i, p, c, k in rows]
