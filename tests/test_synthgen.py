import collections
import json
from dataclasses import replace

import numpy as np
import pytest

from debias_forge.errors import ConfigError, DataError
from debias_forge.synthgen import (
    SynthConfig, bias_oracle_predict, gen_dataset, inject_bias, load_dataset,
    make_eval_suite, save_dataset,
)


def test_config_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        SynthConfig(num_labels=1).validate()
    with pytest.raises(ConfigError):
        SynthConfig(train_size=0).validate()
    with pytest.raises(ConfigError):
        SynthConfig(num_labels=3, vocab_size=9).validate()
    with pytest.raises(ConfigError):
        SynthConfig(bias_proportion=1.5).validate()
    with pytest.raises(ConfigError):
        SynthConfig(manipulated_fraction=-0.1).validate()


def test_labels_follow_signal_conjunction(tiny_clean, tiny_cfg):
    K = tiny_cfg.num_labels
    a_range = range(K, 2 * K)
    b_range = range(2 * K, 3 * K)
    for ex in tiny_clean.examples:
        a_toks = [t for t in ex.segment_a if t in a_range]
        b_toks = [t for t in ex.segment_b if t in b_range]
        assert len(a_toks) == 1 and len(b_toks) == 1
        a_idx = a_toks[0] - K
        b_idx = b_toks[0] - 2 * K
        assert ex.label == (a_idx + b_idx) % K


def test_single_token_marginals_uninformative(tiny_clean, tiny_cfg):
    # each signal token alone must say nothing about the label: for a fixed
    # a-token, labels are uniform over K because b is drawn independently
    K = tiny_cfg.num_labels
    counts = collections.defaultdict(collections.Counter)
    for ex in tiny_clean.examples:
        a_tok = next(t for t in ex.segment_a if K <= t < 2 * K)
        counts[a_tok][ex.label] += 1
    for tok, by_label in counts.items():
        total = sum(by_label.values())
        for label in range(K):
            assert abs(by_label[label] / total - 1 / K) < 0.12


def test_generation_deterministic(tiny_cfg):
    d1 = gen_dataset(tiny_cfg)
    d2 = gen_dataset(tiny_cfg)
    assert d1.examples == d2.examples
    d3 = gen_dataset(replace(tiny_cfg, seed=tiny_cfg.seed + 1))
    assert d3.examples != d1.examples


def test_inject_bias_counts_round_half_up(tiny_clean):
    # expected counts derived by hand: N=800, rho=0.3 -> 240 manipulated;
    # m=0.9 -> 216 biased, 24 anti_biased
    ds = inject_bias(tiny_clean, m=0.9, rho=0.3, seed=5)
    tags = collections.Counter(ex.bias_tag for ex in ds.examples)
    assert tags["biased"] == 216
    assert tags["anti_biased"] == 24
    assert tags["clean"] == 800 - 240


def test_inject_bias_token_semantics(tiny_train, tiny_cfg):
    K = tiny_cfg.num_labels
    for ex in tiny_train.examples:
        if ex.bias_tag == "clean":
            assert ex.bias_token is None
        else:
            assert ex.segment_b[0] == ex.bias_token
            assert 0 <= ex.bias_token < K
            if ex.bias_tag == "biased":
                assert ex.bias_token == ex.label
            else:
                assert ex.bias_token != ex.label


def test_inject_bias_wrong_codes_cover_all_other_labels(tiny_clean):
    ds = inject_bias(tiny_clean, m=0.0, rho=1.0, seed=3)
    seen = collections.Counter()
    for ex in ds.examples:
        assert ex.bias_tag == "anti_biased"
        seen[(ex.label, ex.bias_token)] += 1
    K = ds.num_labels
    for label in range(K):
        for code in range(K):
            if code != label:
                assert seen[(label, code)] > 0


def test_reinjection_refused(tiny_train):
    with pytest.raises(DataError):
        inject_bias(tiny_train, m=0.9, rho=0.3, seed=1)


def test_eval_suite_structure(tiny_suite, tiny_cfg):
    assert set(tiny_suite) == {"original", "biased", "anti_biased"}
    for split, ds in tiny_suite.items():
        assert len(ds) == tiny_cfg.test_size
    assert all(ex.bias_token is None for ex in tiny_suite["original"].examples)
    assert all(ex.bias_token == ex.label for ex in tiny_suite["biased"].examples)
    assert all(ex.bias_token != ex.label and ex.bias_token is not None
               for ex in tiny_suite["anti_biased"].examples)


def test_bias_oracle(tiny_suite):
    for ex in tiny_suite["original"].examples:
        assert bias_oracle_predict(ex) is None
    assert all(bias_oracle_predict(ex) == ex.label
               for ex in tiny_suite["biased"].examples)
    assert all(bias_oracle_predict(ex) != ex.label
               for ex in tiny_suite["anti_biased"].examples)


def test_dataset_roundtrip_bytes(tiny_train, tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_dataset(tiny_train, p1)
    loaded = load_dataset(p1)
    assert loaded.examples == tiny_train.examples
    assert loaded.num_labels == tiny_train.num_labels
    save_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(DataError):
        load_dataset(empty)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"num_labels": 3, "vocab_size": 60}\n{"id": 0, not json\n')
    with pytest.raises(DataError):
        load_dataset(bad)
    badtag = tmp_path / "badtag.jsonl"
    header = json.dumps({"num_labels": 3, "vocab_size": 60})
    rec = json.dumps({"id": 0, "segment_a": [1], "segment_b": [2], "label": 0,
                      "bias_tag": "mystery", "bias_token": None})
    badtag.write_text(header + "\n" + rec + "\n")
    with pytest.raises(DataError):
        load_dataset(badtag)
    noid = tmp_path / "noid.jsonl"
    rec = json.dumps({"segment_a": [1], "segment_b": [2], "label": 0,
                      "bias_tag": "clean", "bias_token": None})
    noid.write_text(header + "\n" + rec + "\n")
    with pytest.raises(DataError, match="noid.jsonl:2"):
        load_dataset(noid)
    for tok, label in ((-1, 0), (60, 0), (2.5, 0), ("3", 0), (3, 3), (3, -1)):
        badtok = tmp_path / "badtok.jsonl"
        rec = json.dumps({"id": 0, "segment_a": [1], "segment_b": [2, tok], "label": label,
                          "bias_tag": "clean", "bias_token": None})
        badtok.write_text(header + "\n" + rec + "\n")
        with pytest.raises(DataError, match="badtok.jsonl:2"):
            load_dataset(badtok)


def test_digest_stable():
    c1 = SynthConfig(seed=4)
    c2 = SynthConfig(seed=4)
    assert c1.digest() == c2.digest()
    assert c1.digest() != SynthConfig(seed=5).digest()
