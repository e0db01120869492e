from dataclasses import replace

import numpy as np
import pytest
from conftest import nearest_rank_percentiles

from debias_forge.classifier import MAX_HIDDEN, MAX_W1_WEIGHTS, Featurizer
from debias_forge.errors import ConfigError, DataError, SchemaError
from debias_forge.objectives import AnnealSchedule
from debias_forge.shallow import BiasWeights, ShallowConfig, compute_bias_weights, train_shallow
from debias_forge.trainer import (
    PERCENTILE_LEVELS, TrainConfig, loss_percentiles, read_metrics, train_main, train_teacher,
    write_metrics,
)

FAST_TRAIN = TrainConfig(epochs=1, batch_size=64, learning_rate=2e-3,
                         hidden=8, feature_dim=130, eval_every=5, seed=3)
FAST_SHALLOW = ShallowConfig(sample_size=200, epochs=2, learning_rate=5e-3,
                             batch_size=32, hidden=8, feature_dim=130, seed=3)


@pytest.fixture(scope="module")
def tiny_weights(tiny_train):
    model, subset_ids = train_shallow(tiny_train, FAST_SHALLOW)
    return compute_bias_weights(model, tiny_train.without(set()))


def test_config_validation():
    # every rule holds for a config built directly and for one replace()d
    for bad, match in [({"method": "dro"}, "method"), ({"epochs": 0}, "epochs"),
                       ({"eval_every": 0}, "eval_every"), ({"batch_size": 0}, "batch_size"),
                       ({"hidden": 0}, "hidden"), ({"learning_rate": 0.0}, "learning_rate"),
                       ({"learning_rate": -1e-3}, "learning_rate"), ({"adam_beta2": 1.0}, "beta2"),
                       ({"adam_beta2": -0.1}, "beta2"), ({"optimizer": "bogus"}, "optimizer"),
                       ({"feature_dim": MAX_W1_WEIGHTS // FAST_TRAIN.hidden + 1},
                        "MAX_W1_WEIGHTS"), ({"hidden": MAX_HIDDEN + 1}, "MAX_HIDDEN")]:
        with pytest.raises(ConfigError, match=match):
            TrainConfig(**{**vars(FAST_TRAIN), **bad})
        with pytest.raises(ConfigError, match=match):
            replace(FAST_TRAIN, **bad)
    replace(FAST_TRAIN, adam_beta2=0.0)
    replace(FAST_TRAIN, feature_dim=MAX_W1_WEIGHTS // FAST_TRAIN.hidden)
    replace(FAST_TRAIN, hidden=MAX_HIDDEN)


def test_loss_percentiles_oracle(rng):
    assert loss_percentiles([1, 2, 3, 4, 5]) == [1, 2, 3, 4, 5]
    assert loss_percentiles([7.0] * 9) == [7.0] * 5
    for n in (*range(1, 70), 100, 1000, 4097):
        for values in (rng.random(n), rng.integers(0, 4, n).astype(float)):  # ties too
            assert tuple(loss_percentiles(values)) == nearest_rank_percentiles(values)
    values = rng.random(100)
    assert abs(loss_percentiles(values)[2] - np.median(values)) < 0.1
    # bit for bit numpy's inverted_cdf percentiles, which it replaces
    for n in range(1, 301):
        for values in (rng.random(n), rng.integers(0, 4, n) * 0.5, -np.zeros(n)):
            want = np.percentile(values, PERCENTILE_LEVELS, method="inverted_cdf")
            assert np.array(loss_percentiles(values)).tobytes() == want.tobytes()


def test_train_deterministic_and_metrics_invariants(tiny_train, tiny_suite):
    m1, log1 = train_main(tiny_train, None, FAST_TRAIN, eval_suite=tiny_suite)
    m2, log2 = train_main(tiny_train, None, FAST_TRAIN, eval_suite=tiny_suite)
    assert log1 == log2
    for name, arr in m1.params.arrays().items():
        assert np.array_equal(arr, m2.params.arrays()[name])
    steps = [r["step"] for r in log1]
    assert steps == list(range(1, len(log1) + 1))
    for r in log1:
        assert r["p0"] <= r["p25"] <= r["p50"] <= r["p75"] <= r["p100"]
        assert r["alpha"] == 1.0
    evals = [r for r in log1 if "acc_original" in r]
    assert evals
    assert all(r["step"] % FAST_TRAIN.eval_every == 0 or r["step"] == len(log1)
               for r in evals)
    assert "acc_original" in log1[-1]


def test_eval_suite_does_not_perturb_training(tiny_train, tiny_suite):
    with_eval, _ = train_main(tiny_train, None, FAST_TRAIN, eval_suite=tiny_suite)
    without, _ = train_main(tiny_train, None, FAST_TRAIN)
    for name, arr in with_eval.params.arrays().items():
        assert np.array_equal(arr, without.params.arrays()[name])


def test_eval_split_or_teacher_of_another_schema_refused_before_training(
        tiny_train, tiny_suite, tiny_weights, featurized):
    other = replace(tiny_suite["original"], num_labels=4)
    with pytest.raises(SchemaError, match="mismatch"):
        train_main(tiny_train, None, FAST_TRAIN, eval_suite={**tiny_suite, "original": other})
    assert featurized == []  # refused before the training set is featurized
    teacher = train_teacher(tiny_train, FAST_TRAIN)
    for bad in (replace(teacher, num_labels=4),
                replace(teacher, featurizer=Featurizer(61, FAST_TRAIN.feature_dim))):
        with pytest.raises(SchemaError, match="mismatch"):
            train_main(tiny_train, tiny_weights, replace(FAST_TRAIN, method="conf_reg"),
                       teacher=bad)


def test_empty_training_set_refused_before_featurizing(tiny_train, tiny_weights, featurized):
    empty = replace(tiny_train, examples=[])
    for method in ("baseline_ce", "reweight"):
        with pytest.raises(DataError, match="empty training set"):
            train_main(empty, tiny_weights, replace(FAST_TRAIN, method=method))
    with pytest.raises(DataError, match="empty training set"):
        train_teacher(empty, FAST_TRAIN)
    assert featurized == []


def test_empty_eval_split_refused_before_featurizing(tiny_train, tiny_suite, featurized):
    # its accuracy would be the mean of no predictions: NaN in the metrics
    suite = {**tiny_suite, "biased": replace(tiny_suite["biased"], examples=[])}
    with pytest.raises(DataError, match="empty eval split 'biased'"):
        train_main(tiny_train, None, FAST_TRAIN, eval_suite=suite)
    assert featurized == []


def test_debias_methods_require_weights(tiny_train):
    for method in ("reweight", "poe", "conf_reg"):
        with pytest.raises(ConfigError):
            train_main(tiny_train, None, replace(FAST_TRAIN, method=method))


def test_missing_weight_entry_names_the_id(tiny_train, tiny_weights):
    missing_id = tiny_train.examples[5].id
    keep = tiny_weights.ids != missing_id
    weights = BiasWeights(tiny_weights.ids[keep], tiny_weights.p_b[keep],
                          tiny_weights.p_b_correct[keep], tiny_weights.predicted[keep])
    with pytest.raises(DataError, match=str(missing_id)):
        train_main(tiny_train, weights, replace(FAST_TRAIN, method="reweight"))


def test_uniform_pb_reweight_matches_constant_weight_baseline(tiny_train):
    """With uniform p_b every weight is 1 - 1/K; the run must be identical to
    baseline training whose gradients are scaled by that constant."""
    n = len(tiny_train)
    uniform = BiasWeights(np.sort(tiny_train.examples.ids), np.full((n, 3), 1 / 3),
                          np.full(n, 1 / 3), np.zeros(n, np.int64))
    cfg_rw = replace(FAST_TRAIN, method="reweight", optimizer="sgd")
    m_rw, _ = train_main(tiny_train, uniform, cfg_rw)
    cfg_base = replace(FAST_TRAIN, optimizer="sgd",
                       learning_rate=FAST_TRAIN.learning_rate * (1 - 1 / 3))
    m_base, _ = train_main(tiny_train, None, cfg_base)
    for name, arr in m_rw.params.arrays().items():
        assert np.allclose(arr, m_base.params.arrays()[name], atol=1e-10)


def test_poe_anneal_to_zero_ends_at_baseline_objective(tiny_train, tiny_weights):
    sched = AnnealSchedule(a=0.0, enabled=True)
    cfg = replace(FAST_TRAIN, method="poe", anneal=sched)
    _, log = train_main(tiny_train, tiny_weights, cfg)
    alphas = [r["alpha"] for r in log]
    assert alphas[0] > alphas[-1]
    assert all(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:]))
    assert alphas[-1] == pytest.approx((1) / len(log), abs=1e-12)


def test_teacher_is_baseline_and_deterministic(tiny_train):
    cfg = replace(FAST_TRAIN, method="conf_reg")
    t1 = train_teacher(tiny_train, cfg)
    base, _ = train_main(tiny_train, None, replace(FAST_TRAIN, method="baseline_ce"))
    for name, arr in t1.params.arrays().items():
        assert np.array_equal(arr, base.params.arrays()[name])


def test_conf_reg_requires_teacher(tiny_train, tiny_weights):
    with pytest.raises(ConfigError):
        train_main(tiny_train, tiny_weights, replace(FAST_TRAIN, method="conf_reg"))


def test_metrics_roundtrip(tiny_train, tmp_path):
    _, log = train_main(tiny_train, None, FAST_TRAIN)
    path = tmp_path / "m.jsonl"
    write_metrics(log, path)
    assert read_metrics(path) == log
    again = tmp_path / "m2.jsonl"
    write_metrics(read_metrics(path), again)
    assert again.read_bytes() == path.read_bytes()
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"step": 1}\nnot json\n')
    with pytest.raises(DataError):
        read_metrics(bad)
