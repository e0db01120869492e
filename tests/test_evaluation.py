from dataclasses import replace

import numpy as np
import pytest

from debias_forge.errors import ConfigError, DataError
from debias_forge.evaluation import (
    MAX_BINS, accuracy, bias_proportion_study, confidence_histogram,
    identify_stage, proportion_seed, sweep_study,
)
from debias_forge.objectives import AnnealSchedule
from debias_forge.shallow import ShallowConfig
from debias_forge.synthgen import SynthConfig, gen_dataset, inject_bias, make_eval_suite
from debias_forge.trainer import TrainConfig, train_main, train_teacher


class _StubModel:
    """Fixed per-example probabilities keyed by example id."""

    def __init__(self, probs_by_id, num_labels=3):
        self.probs_by_id = probs_by_id
        self.num_labels = num_labels

    def predict_proba(self, examples):
        return np.array([self.probs_by_id[ex.id] for ex in examples])

    def predict(self, examples):
        return np.argmax(self.predict_proba(examples), axis=1)


def _oracle_stub(split):
    """Model that plays the bias oracle, which predicts the label its bias
    token decodes to: abstentions (clean examples) predict label 0."""
    probs = {}
    for ex in split.examples:
        p = np.full(3, 0.05)
        p[0 if ex.bias_token is None else ex.bias_token] = 0.9
        probs[ex.id] = p
    return _StubModel(probs)


def test_accuracy_on_oracle_equivalent_model(tiny_suite):
    assert accuracy(_oracle_stub(tiny_suite["biased"]), tiny_suite["biased"]) == 1.0
    assert accuracy(_oracle_stub(tiny_suite["anti_biased"]), tiny_suite["anti_biased"]) == 0.0
    with pytest.raises(DataError):
        accuracy(_oracle_stub(tiny_suite["biased"]), [])


def test_accuracy_permutation_invariant(tiny_suite):
    split = tiny_suite["original"]
    model = _oracle_stub(split)
    base = accuracy(model, split)
    shuffled = list(split.examples)
    np.random.default_rng(0).shuffle(shuffled)
    assert accuracy(model, replace(split, examples=shuffled)) == base


def test_uniform_model_accuracy_near_chance(tiny_suite):
    split = tiny_suite["original"]
    model = _StubModel({ex.id: np.full(3, 1 / 3) for ex in split.examples})
    # argmax ties break to the lowest label; oracle is the label-0 frequency
    expect = float(np.mean(split.labels() == 0))
    assert accuracy(model, split) == expect
    assert abs(expect - 1 / 3) < 0.05


def test_histogram_mass_conservation(tiny_suite):
    split = tiny_suite["original"]
    model = _oracle_stub(split)
    hist = confidence_histogram(model, split)
    assert sum(hist.counts) == len(split)
    acc = accuracy(model, split)
    assert sum(hist.correct) == round(acc * len(split))
    assert hist.edges[0] == pytest.approx(1 / 3)
    assert hist.edges[-1] == 1.0
    for count, correct in zip(hist.counts, hist.correct):
        assert 0 <= correct <= count


def test_histogram_uniform_model_lowest_bin(tiny_suite):
    split = tiny_suite["original"]
    model = _StubModel({ex.id: np.full(3, 1 / 3) for ex in split.examples})
    hist = confidence_histogram(model, split)
    assert hist.counts[0] == len(split)
    assert sum(hist.counts[1:]) == 0


def test_histogram_full_confidence_lands_in_top_bin(tiny_suite):
    split = tiny_suite["original"]
    probs = {ex.id: np.eye(3)[ex.label] for ex in split.examples}
    hist = confidence_histogram(_StubModel(probs), split)
    assert hist.counts[-1] == len(split)
    assert hist.correct_fraction[-1] == 1.0


def test_histogram_bad_bin_width(tiny_suite):
    with pytest.raises(ConfigError):
        confidence_histogram(_oracle_stub(tiny_suite["original"]),
                             tiny_suite["original"], bin_width=0.0)


@pytest.mark.parametrize("num_labels", [2, 3, 10**9])
def test_histogram_bins_stop_at_max_bins(tiny_suite, num_labels):
    split = tiny_suite["original"]
    model = _oracle_stub(split)
    model.num_labels = num_labels
    # every bin_width of at least 1e-5 is kept, whatever the label count
    hist = confidence_histogram(model, split, bin_width=1e-5)
    assert len(hist.counts) <= MAX_BINS and sum(hist.counts) == len(split)
    # a width that would cut more bins is refused before any is appended
    for width in (1e-300, (1 - 1 / num_labels) / (MAX_BINS + 1)):
        with pytest.raises(ConfigError, match="MAX_BINS"):
            confidence_histogram(model, split, bin_width=width)


def test_easy_hard_partition_trivial_splits(tiny_suite):
    # the easy/hard partition is the oracle_easy mask and its complement
    assert tiny_suite["biased"].oracle_easy().all()
    assert not tiny_suite["anti_biased"].oracle_easy().any()
    assert not tiny_suite["original"].oracle_easy().any()  # abstentions are hard


def test_easy_hard_partition_counting(tiny_cfg):
    ds = inject_bias(gen_dataset(tiny_cfg), m=0.9, rho=1.0, seed=9)
    easy = ds.oracle_easy()
    assert easy.shape == (len(ds),)
    assert np.array_equal(easy, [ex.bias_tag == "biased" for ex in ds])
    assert abs(easy.mean() - 0.9) <= 0.02


def test_bias_proportion_edge_cases(tiny_cfg):
    cfg = replace(tiny_cfg, train_size=1500)
    tcfg = TrainConfig(epochs=1, batch_size=64, learning_rate=2e-3,
                       hidden=8, feature_dim=130, seed=1)
    # at m = 1/K the injected token carries no label information, so the
    # fully aligned and fully misaligned eval splits score symmetrically
    rows = bias_proportion_study([1 / 3], cfg, tcfg, seeds=[1, 2])
    row = rows[0]
    assert abs(row["biased_mean"] - row["anti_biased_mean"]) < 0.05
    # at m = 0 the token actively excludes its own label, which hurts the
    # aligned split relative to the misaligned one
    rows = bias_proportion_study([0.0], cfg, tcfg, seeds=[1, 2])
    row = rows[0]
    assert row["anti_biased_mean"] >= row["biased_mean"] - 0.02
    with pytest.raises(ConfigError):
        bias_proportion_study([1.5], cfg, tcfg, seeds=[1])


# -- the per-seed study and sweep equal a plain per-(point, seed) loop --------

TINY_TRAIN = TrainConfig(epochs=1, batch_size=64, learning_rate=2e-3,
                         hidden=8, feature_dim=130)
TINY_SHALLOW = ShallowConfig(sample_size=150, epochs=2, learning_rate=0.005,
                             hidden=8, feature_dim=130)
SEEDS = [1, 2]


def _mean_std(vals):
    vals = np.array(vals)
    return float(vals.mean()), float(vals.std())


def test_bias_proportion_study_equals_naive_loop(tiny_cfg):
    ms = [0.6, 0.9]
    expected = []
    for m in ms:
        accs = []
        for seed in SEEDS:
            cfg = replace(tiny_cfg, bias_proportion=m, seed=seed)
            train = inject_bias(gen_dataset(cfg), m=m, rho=cfg.manipulated_fraction,
                                seed=seed)
            suite = make_eval_suite(cfg)
            model, _ = train_main(train, None, replace(TINY_TRAIN, seed=seed))
            accs.append({split: accuracy(model, ds) for split, ds in suite.items()})
        row = {"m": m, "seeds": len(SEEDS)}
        for split in ("original", "biased", "anti_biased"):
            row[f"{split}_mean"], row[f"{split}_std"] = _mean_std([a[split] for a in accs])
        expected.append(row)
    assert bias_proportion_study(ms, tiny_cfg, TINY_TRAIN, SEEDS) == expected


def test_proportion_seed_featurizes_each_split_once(tiny_cfg, featurized):
    proportion_seed([0.6, 0.9], tiny_cfg, TINY_TRAIN, 1)
    # one training set per m, then each of the three suite splits once
    assert featurized == [tiny_cfg.train_size] * 2 + [tiny_cfg.test_size] * 3


def test_identify_then_train_featurizes_main_set_once(tiny_train, featurized):
    weights, main_train = identify_stage(tiny_train, TINY_SHALLOW, 1)
    run_cfg = replace(TINY_TRAIN, method="conf_reg", seed=1)
    train_main(main_train, weights, run_cfg, teacher=train_teacher(main_train, run_cfg))
    # the shallow subset, then the main-training set once: the bias weights,
    # the teacher and the main model share the matrix the scoring built
    assert featurized == [TINY_SHALLOW.sample_size, len(main_train)]
    assert len(main_train) == len(tiny_train) - TINY_SHALLOW.sample_size


def test_anneal_sweep_equals_naive_loop(tiny_cfg):
    a_values = [1.0, 0.0]
    expected = []
    for a in a_values:
        orig, anti = [], []
        for seed in SEEDS:
            cfg = replace(tiny_cfg, seed=seed)
            train = inject_bias(gen_dataset(cfg), m=cfg.bias_proportion,
                                rho=cfg.manipulated_fraction, seed=seed)
            suite = make_eval_suite(cfg)
            weights, main_train = identify_stage(train, TINY_SHALLOW, seed)
            run_cfg = replace(TINY_TRAIN, method="conf_reg", seed=seed,
                              anneal=AnnealSchedule(a=a, enabled=True))
            teacher = train_teacher(main_train, run_cfg)
            model, _ = train_main(main_train, weights, run_cfg, teacher=teacher)
            orig.append(accuracy(model, suite["original"]))
            anti.append(accuracy(model, suite["anti_biased"]))
        row = {"value": a, "seeds": len(SEEDS)}
        row["original_mean"], row["original_std"] = _mean_std(orig)
        row["anti_biased_mean"], row["anti_biased_std"] = _mean_std(anti)
        expected.append(row)
    assert sweep_study(a_values, "conf_reg", tiny_cfg, TINY_TRAIN, TINY_SHALLOW, SEEDS) == expected


def test_anneal_sweep_rejects_baseline_and_empty_seeds(tiny_cfg):
    with pytest.raises(ConfigError):
        sweep_study([1.0], "baseline_ce", tiny_cfg, TINY_TRAIN, TINY_SHALLOW, [1])
    with pytest.raises(ConfigError):
        sweep_study([1.0], "conf_reg", tiny_cfg, TINY_TRAIN, TINY_SHALLOW, [])
