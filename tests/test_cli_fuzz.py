"""Fuzz the CLI's exit codes: whatever a TINY dataset's header or a shallow
checkpoint's meta says, `shallow`, `identify` and `train` return one of the
documented exit codes (0 success, 2 config, 3 data/schema, 4 numeric, 5
degenerate shallow model) and raise nothing. The commands run in-process on
a TINY set, so the whole fuzz takes a few seconds."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from debias_forge.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}
CONF = """
data.train_size = 600
data.test_size = 60
data.vocab_size = 60
data.tokens_per_segment = 4
shallow.sample_size = 150
shallow.epochs = 2
shallow.learning_rate = 0.005
shallow.feature_dim = 130
shallow.hidden = 8
train.epochs = 1
train.feature_dim = 130
train.hidden = 8
train.method = reweight
"""
# integers around the TINY set's 3 labels, 60 tokens and 130 features, and
# far past them
INTS = st.sampled_from([-1, 0, 1, 2, 3, 8, 60, 61, 65, 130, 2**40])
VALUES = (st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=3)
          | st.lists(INTS | st.floats(), max_size=3)
          | st.dictionaries(st.text(max_size=2), INTS, max_size=2))
# half the time one of those integers, else any JSON value
FIELD = st.booleans().flatmap(lambda ints: INTS if ints else VALUES)
FUZZ = settings(max_examples=200, deadline=None)
# an identify run that fails at load takes milliseconds
FUZZ_META = settings(max_examples=150, deadline=None)


@st.composite
def _mutated(draw, obj, keys, values):
    """obj with one or two of `keys` given another value or dropped, and
    sometimes one key added; the other keys stay valid, so that a run gets
    past some checks and meets a later one."""
    out = dict(obj)
    for key in draw(st.sets(st.sampled_from(keys), min_size=1, max_size=2)):
        if draw(st.integers(0, 3)):
            out[key] = draw(values(key))
        else:
            del out[key]
    if draw(st.booleans()):
        out[draw(st.text(max_size=3))] = draw(VALUES)
    return out


def _cli(root, command, *argv):
    return main([command, "--config", str(root / "run.conf"), "--out-dir", str(root / "out"),
                 "--seed", "5", "--quiet", *argv])


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory with a generated TINY set (train.jsonl), a shallow
    checkpoint of it (shallow.ckpt.json) and its bias weights (weights.jsonl)."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    (root / "run.conf").write_text(CONF)
    data = root / "train.jsonl"
    assert _cli(root, "generate") == 0
    (root / "out" / "train.jsonl").rename(data)
    assert _cli(root, "shallow", "--data", str(data)) == 0
    (ckpt,) = (root / "out").glob("shallow-*.ckpt.json")
    ckpt.rename(root / "shallow.ckpt.json")
    assert _cli(root, "identify", "--data", str(data),
                "--checkpoint", str(root / "shallow.ckpt.json")) == 0
    (weights,) = (root / "out").glob("weights-*.jsonl")
    weights.rename(root / "weights.jsonl")
    return root


def _meta_values(key):
    if key == "subset_ids":
        return st.lists(INTS, max_size=3) | st.lists(FIELD, min_size=1, max_size=3) | FIELD
    return FIELD


@FUZZ
@given(data=st.data())
def test_fuzzed_dataset_header_exits_with_its_code(root, data):
    header, *lines = (root / "train.jsonl").read_text().splitlines()
    fuzzed = root / "fuzzed.jsonl"
    header = data.draw(_mutated(json.loads(header), ["num_labels", "vocab_size"],
                                lambda key: FIELD), label="header")
    fuzzed.write_text("\n".join([json.dumps(header), *lines]) + "\n")
    for command, argv in (("shallow", []),
                          ("identify", ["--checkpoint", str(root / "shallow.ckpt.json")]),
                          ("train", ["--weights", str(root / "weights.jsonl")])):
        assert _cli(root, command, "--data", str(fuzzed), *argv) in EXIT_CODES, command


@FUZZ_META
@given(data=st.data())
def test_fuzzed_checkpoint_meta_exits_with_its_code(root, data):
    ckpt = json.loads((root / "shallow.ckpt.json").read_text())
    ckpt["meta"] = data.draw(_mutated(ckpt["meta"], sorted(ckpt["meta"]), _meta_values),
                             label="meta")
    fuzzed = root / "fuzzed.ckpt.json"
    fuzzed.write_text(json.dumps(ckpt))
    assert _cli(root, "identify", "--data", str(root / "train.jsonl"),
                "--checkpoint", str(fuzzed)) in EXIT_CODES
