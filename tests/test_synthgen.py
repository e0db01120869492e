import collections
import itertools
import json
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_classifier import _stacked_featurize

from debias_forge import synthgen
from debias_forge.classifier import Featurizer
from debias_forge.errors import ConfigError, DataError, config_digest
from debias_forge.rng import substream
from debias_forge.synthgen import (
    BIAS_TAGS, MAX_SPLIT_TOKENS, Dataset, Example, SynthConfig, _round_half_up, gen_dataset,
    inject_bias, load_dataset, make_eval_suite, save_dataset,
)


# a value that breaks each rule of SynthConfig, with a word of its message
SYNTH_BREAKS = [
    ({"num_labels": 1}, "num_labels"), ({"train_size": 0}, "positive"),
    ({"test_size": -1}, "positive"), ({"num_labels": 3, "vocab_size": 9}, "too small"),
    ({"vocab_size": 2**63 + 1}, "too large"), ({"tokens_per_segment": 0}, "tokens_per_segment"),
    ({"train_size": MAX_SPLIT_TOKENS // 8 + 1}, "MAX_SPLIT_TOKENS"),
    ({"test_size": MAX_SPLIT_TOKENS // 4 + 1, "tokens_per_segment": 4}, "MAX_SPLIT_TOKENS"),
    ({"tokens_per_segment": MAX_SPLIT_TOKENS}, "MAX_SPLIT_TOKENS"),
    ({"noise_token_rate": 1.5}, "noise_token_rate"),
    ({"manipulated_fraction": -0.1}, "manipulated_fraction"),
    ({"bias_proportion": 1.5}, "bias_proportion"),
]


def test_config_validation_rejects_bad_values():
    # every rule holds for a config built directly and for one replace()d
    for bad, match in SYNTH_BREAKS:
        with pytest.raises(ConfigError, match=match):
            SynthConfig(**bad)
        with pytest.raises(ConfigError, match=match):
            replace(SynthConfig(), **bad)
    # the caps are inclusive; building a config allocates nothing
    SynthConfig(train_size=MAX_SPLIT_TOKENS // 8, test_size=MAX_SPLIT_TOKENS // 8)
    SynthConfig(train_size=1, test_size=1, tokens_per_segment=MAX_SPLIT_TOKENS)


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


def test_dataset_matrix_built_once_per_featurizer(tiny_train):
    ds = replace(tiny_train)  # a fresh Dataset: the session fixture keeps its own matrices
    X = ds.matrix(Featurizer(tiny_train.vocab_size, 130))
    assert ds.matrix(Featurizer(tiny_train.vocab_size, 130)) is X
    other = ds.matrix(Featurizer(tiny_train.vocab_size, 140))
    assert other is not X and other.shape == (len(ds), 140)
    ref = Featurizer(tiny_train.vocab_size, 130).matrix(tiny_train.examples)
    for a in ("data", "indices", "indptr"):
        assert getattr(X, a).dtype == getattr(ref, a).dtype
        assert getattr(X, a).tobytes() == getattr(ref, a).tobytes()
    assert X.shape == ref.shape
    assert list(ds) == tiny_train.examples


def test_replaced_dataset_starts_without_matrix(tiny_train):
    featurizer = Featurizer(tiny_train.vocab_size, 130)
    ds = replace(tiny_train)
    X = ds.matrix(featurizer)
    again = replace(ds)
    assert again == ds and again._matrices == {}
    assert again.matrix(featurizer) is not X
    half = replace(ds, examples=ds.examples[:100])
    assert half.matrix(featurizer).shape[0] == 100
    with pytest.raises(FrozenInstanceError):
        ds.examples = []


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
    for bad_header in ({"num_labels": "3", "vocab_size": 60},
                       {"num_labels": 3, "vocab_size": "1000"},
                       {"num_labels": True, "vocab_size": 60}, [3, 60],
                       # a label is a bias token, so 2 <= num_labels <= vocab_size
                       {"num_labels": 1, "vocab_size": 60},
                       {"num_labels": 61, "vocab_size": 60},
                       {"num_labels": 2**40, "vocab_size": 60},
                       # tokens are int64
                       {"num_labels": 3, "vocab_size": 2**63 + 1}):
        badhead = tmp_path / "badhead.jsonl"
        badhead.write_text(json.dumps(bad_header) + "\n" + rec + "\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(badhead)
    for tok, label in ((-1, 0), (60, 0), (2.5, 0), ("3", 0), (3, 3), (3, -1)):
        badtok = tmp_path / "badtok.jsonl"
        rec = json.dumps({"id": 0, "segment_a": [1], "segment_b": [2, tok], "label": label,
                          "bias_tag": "clean", "bias_token": None})
        badtok.write_text(header + "\n" + rec + "\n")
        with pytest.raises(DataError, match="badtok.jsonl:2"):
            load_dataset(badtok)
    good = {"id": 0, "segment_a": [1], "segment_b": [2], "label": 0,
            "bias_tag": "clean", "bias_token": None}
    for recs in ([good, dict(good, segment_a=[3])],            # duplicate id
                 [dict(good, id="x")], [dict(good, id=True)],   # non-integer id
                 [good, dict(good, id=2**63)], [dict(good, id=2**64 - 1)],  # past int64
                 [dict(good, bias_token=2)],                   # clean with a token
                 [dict(good, bias_tag="biased")],              # biased without one
                 [dict(good, bias_tag="anti_biased", bias_token=60)],  # outside the vocab
                 [dict(good, bias_tag="biased", bias_token=-1)],
                 [dict(good, bias_tag="biased", bias_token="0")],
                 # a segment is a list of tokens, an empty list included
                 [dict(good, segment_a="")], [dict(good, segment_b={})],
                 # the bias token is the first token of segment_b
                 [dict(good, bias_tag="biased", segment_b=[2, 0], bias_token=0)],
                 [dict(good, bias_tag="anti_biased", segment_b=[], bias_token=1)],
                 # a biased token is the label, an anti-biased one is not
                 [dict(good, bias_tag="biased", segment_b=[1, 5], bias_token=1)],
                 [dict(good, bias_tag="anti_biased", segment_b=[0, 5], bias_token=0)]):
        badrec = tmp_path / "badrec.jsonl"
        badrec.write_text("\n".join([header] + [json.dumps(r) for r in recs]) + "\n")
        with pytest.raises(DataError, match=f"badrec.jsonl:{len(recs) + 1}"):
            load_dataset(badrec)
    emptyseg = tmp_path / "emptyseg.jsonl"
    emptyseg.write_text(header + "\n" + json.dumps(dict(good, segment_a=[], segment_b=[])) + "\n")
    ex = load_dataset(emptyseg).examples[0]
    assert (ex.segment_a, ex.segment_b) == ((), ())
    # JSON the reader refuses (NaN, Infinity, a number past the largest
    # double) or reads as a float (an integer of 2**64)
    line = json.dumps(good)
    for head, rec in ((header.replace("}", ', "provenance": {"m": NaN}}'), line),
                      (header.replace("}", ', "provenance": {"m": Infinity}}'), line),
                      (header, line.replace('"label": 0', '"label": 1e999')),
                      (header, line.replace('"id": 0', f'"id": {2**64}')),
                      (header, line.replace('"segment_b": [2]', f'"segment_b": [2, {2**64}]'))):
        badnum = tmp_path / "badnum.jsonl"
        badnum.write_text(head + "\n" + rec + "\n")
        with pytest.raises(DataError, match="badnum.jsonl:[12]"):
            load_dataset(badnum)


def test_digest_stable():
    c1 = SynthConfig(seed=4)
    c2 = SynthConfig(seed=4)
    assert config_digest(asdict(c1)) == config_digest(asdict(c2))
    assert config_digest(asdict(c1)) != config_digest(asdict(SynthConfig(seed=5)))


def test_saving_a_loaded_set_hashes_its_stored_config(tiny_clean, tiny_cfg, tmp_path):
    # a stored config that breaks a SynthConfig rule is hashed as it is, not
    # rebuilt into a SynthConfig
    path = tmp_path / "a.jsonl"
    save_dataset(tiny_clean, path)
    header, *lines = path.read_text().splitlines()
    head = json.loads(header)
    assert head["config_digest"] == config_digest(asdict(tiny_cfg))
    head["provenance"]["config"]["bias_proportion"] = 1.5
    path.write_text("\n".join([json.dumps(head), *lines]) + "\n")
    loaded = load_dataset(path)
    save_dataset(loaded, tmp_path / "b.jsonl")
    again = json.loads((tmp_path / "b.jsonl").read_text().splitlines()[0])
    assert again["config_digest"] == config_digest(head["provenance"]["config"])
    assert again["provenance"] == head["provenance"]


# -- bulk generation against the per-example loop it replays -----------------

def _reference_examples(cfg, stream, count, split):
    """The per-example loop of Generator calls whose draws gen_dataset and
    make_eval_suite replay in bulk."""
    rng = substream(cfg.seed, stream)
    K, n = cfg.num_labels, cfg.tokens_per_segment - 1
    lo, hi = cfg.noise_range
    examples = []
    for i in range(count):
        a_idx = int(rng.integers(0, K))
        b_idx = int(rng.integers(0, K))
        label = (a_idx + b_idx) % K
        segs = []
        for sig in (K + a_idx, 2 * K + b_idx):
            keep = rng.random(n) < cfg.noise_token_rate if n else np.zeros(0, bool)
            fill = rng.integers(lo, hi, size=n)
            toks = list(fill[keep])
            toks.insert(int(rng.integers(0, len(toks) + 1)), sig)
            segs.append(tuple(int(t) for t in toks))
        if split in ("train", "original"):
            examples.append(Example(i, segs[0], segs[1], label))
            continue
        code = label
        if split == "anti_biased":
            wrong = int(rng.integers(0, K - 1))
            code = wrong if wrong < label else wrong + 1
        examples.append(Example(i, segs[0], (code,) + segs[1], label, split, code))
    return examples


def _reference_sets(cfg):
    sets = {"train": Dataset(_reference_examples(cfg, "gen", cfg.train_size, "train"),
                             cfg.num_labels, cfg.vocab_size,
                             {"config": asdict(cfg), "split": "train"})}
    for split in ("original", "biased", "anti_biased"):
        sets[split] = Dataset(
            _reference_examples(cfg, f"eval_{split}", cfg.test_size, split),
            cfg.num_labels, cfg.vocab_size, {"config": asdict(cfg), "split": f"eval_{split}"})
    return sets


SMALL = SynthConfig(train_size=150, test_size=60)
# rate 0.6 drops every filler of some segments, whose position then draws
# nothing; rate 0.0 drops them all. One token per segment has no fillers, two
# an odd count, seven and eight an even one; K=2 has one wrong code, which
# draws nothing. The seeds cycle through the grid.
BULK_GRID = [
    replace(SMALL, noise_token_rate=rate, tokens_per_segment=T, num_labels=K, seed=seed)
    for (rate, T, K), seed in zip(itertools.product((1.0, 0.6, 0.0), (1, 2, 7, 8), (2, 3, 5)),
                                  itertools.cycle((0, 1, 2, 7)))
] + [
    # a quarter of the noise draws rejected (range 3 * 2**30 - 9)
    replace(SMALL, vocab_size=3 * 2**30, seed=4),
    replace(SMALL, vocab_size=3 * 2**30, noise_token_rate=0.6, tokens_per_segment=2, seed=5),
    # a noise range of exactly 2**32, and ranges drawn from whole words (with
    # a kept half that outlives whole words when both positions draw nothing)
    replace(SMALL, vocab_size=2**32 + 9, noise_token_rate=0.6, seed=6),
    replace(SMALL, vocab_size=3 * 2**61, noise_token_rate=0.6, tokens_per_segment=2, seed=8),
    replace(SMALL, vocab_size=3 * 2**61, seed=9),
    replace(SMALL, vocab_size=2**63, seed=12),  # the largest: tokens up to 2**63 - 1
    # more words per example than the walk first draws (a quarter of 30
    # whole-word fillers rejected)
    replace(SMALL, vocab_size=3 * 2**61, tokens_per_segment=16, seed=11),
    # more examples than one block; rate 0.6 and seed 1 first drop every
    # filler of a segment at example 537 (ids from 0), after which a replay
    # that always draws the position goes wrong
    replace(SMALL, train_size=2500, test_size=1100, seed=3),
    replace(SMALL, train_size=1500, noise_token_rate=0.6, tokens_per_segment=2, seed=10),
    replace(SMALL, train_size=700, noise_token_rate=0.6, seed=1),
]


@pytest.mark.parametrize("cfg", BULK_GRID, ids=lambda c: (
    f"K{c.num_labels}-T{c.tokens_per_segment}-rate{c.noise_token_rate}-V{c.vocab_size}"
    f"-N{c.train_size}-seed{c.seed}"))
def test_bulk_generation_equals_per_example_loop(cfg, tmp_path):
    want = _reference_sets(cfg)
    got = {"train": gen_dataset(cfg), **make_eval_suite(cfg)}
    for split, ds in got.items():
        assert ds.examples == want[split].examples, split
        save_dataset(ds, tmp_path / "got.jsonl")
        save_dataset(want[split], tmp_path / "want.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


@settings(max_examples=150, deadline=None)
@given(rate=st.sampled_from((0.0, 0.3, 0.6, 1.0)), T=st.integers(1, 9),
       K=st.sampled_from((2, 3, 5, 7)),
       vocab=st.sampled_from((1000, 3 * 2**30, 2**32 + 9, 3 * 2**61, 2**63)),
       train_size=st.integers(1, 60), test_size=st.integers(1, 60), seed=st.integers(0, 999),
       block=st.integers(1, 40))
def test_generation_equals_per_example_loop_at_any_block_edge(
        rate, T, K, vocab, train_size, test_size, seed, block):
    """Small blocks put block edges after kept halves and after positions
    that draw nothing, which BULK_GRID's blocks of 1024 do not reach."""
    cfg = SynthConfig(num_labels=K, train_size=train_size, test_size=test_size,
                      vocab_size=vocab, tokens_per_segment=T, noise_token_rate=rate, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthgen, "_BLOCK", block)
        got = {"train": gen_dataset(cfg), **make_eval_suite(cfg)}
    want = _reference_sets(cfg)
    for split, ds in got.items():
        assert ds.examples == want[split].examples, split


def _reference_inject(dataset, m, rho, seed):
    """The per-example loop that inject_bias draws as: one permutation, then
    one integers(0, K - 1) per anti-biased example, in index order."""
    rng = substream(seed, "inject")
    n_manip = _round_half_up(rho * len(dataset))
    n_biased = _round_half_up(m * n_manip)
    manip = rng.permutation(len(dataset))[:n_manip].tolist()
    biased, anti = set(manip[:n_biased]), set(manip[n_biased:])
    out = []
    for i, ex in enumerate(dataset):
        if i in biased or i in anti:
            wrong = int(rng.integers(0, dataset.num_labels - 1)) if i in anti else None
            code = ex.label if wrong is None else wrong + (wrong >= ex.label)
            tag = "biased" if wrong is None else "anti_biased"
            ex = ex._replace(segment_b=(code,) + ex.segment_b, bias_tag=tag, bias_token=code)
        out.append(ex)
    return out


@pytest.mark.parametrize("K", [2, 3, 5, 2**33])
def test_inject_bias_equals_per_example_loop(K):
    rng = np.random.default_rng(K % 97)

    def segment():  # empty a quarter of the time
        return tuple(rng.integers(0, 60, rng.integers(0, 4)).tolist())

    for trial in range(20):
        examples = [Example(int(rng.integers(-50, 50)), segment(), segment(),
                            int(rng.integers(0, min(K, 60)))) for _ in range(rng.integers(0, 80))]
        clean = Dataset(examples, K, 3 * K + 60)
        m, rho, seed = float(rng.random()), float(rng.random()), int(rng.integers(0, 1000))
        assert list(inject_bias(clean, m, rho, seed)) == _reference_inject(clean, m, rho, seed)


@st.composite
def _valid_examples(draw):
    """Examples that load_dataset takes under K=3 and V=60: distinct int64
    ids, and bias tokens that keep the rules."""
    examples = []
    for ex_id in draw(st.lists(st.integers(-2**63, 2**63 - 1), unique=True, max_size=12)):
        label, tag = draw(st.integers(0, 2)), draw(st.sampled_from(BIAS_TAGS))
        seg_a, seg_b = (tuple(draw(st.lists(st.integers(0, 59), max_size=5))) for _ in "ab")
        token = {"clean": None, "biased": label}.get(
            tag, draw(st.sampled_from([k for k in range(3) if k != label])))
        if token is not None:
            seg_b = (token,) + seg_b
        examples.append(Example(ex_id, seg_a, seg_b, label, tag, token))
    return examples


@pytest.fixture(scope="module")
def roundtrip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("columns")


@settings(max_examples=150, deadline=None)
@given(examples=_valid_examples(), data=st.data())
def test_columns_keep_every_example(roundtrip_dir, examples, data):
    ds = Dataset(examples, 3, 60)
    assert list(ds) == list(ds.examples) == examples and len(ds) == len(examples)
    assert ds.examples[:] == examples and ds.examples[1::2] == examples[1::2]
    assert [ds.examples[i] for i in range(-len(examples), len(examples))] == examples * 2
    assert ds.labels().tolist() == [ex.label for ex in examples]
    assert ds.oracle_easy().tolist() == [ex.bias_token == ex.label for ex in examples]
    first, second = roundtrip_dir / "a.jsonl", roundtrip_dir / "b.jsonl"
    save_dataset(ds, first)
    loaded = load_dataset(first)
    assert list(loaded) == examples
    save_dataset(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    ids = data.draw(st.sets(st.sampled_from([ex.id for ex in examples] or [0]) | st.integers()))
    limit = data.draw(st.none() | st.integers(0, 12))
    assert list(ds.without(ids, limit)) == [ex for ex in examples if ex.id not in ids][:limit]
    f = Featurizer(60, 130)
    got, want = ds.matrix(f), _stacked_featurize(f, examples)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
