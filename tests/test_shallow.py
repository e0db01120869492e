from dataclasses import replace

import numpy as np
import pytest

from debias_forge import shallow
from debias_forge.classifier import MAX_W1_WEIGHTS, Featurizer, Model, ModelParams
from debias_forge.errors import ConfigError, DataError
from debias_forge.evaluation import stability_study
from debias_forge.shallow import (
    BiasWeights, ShallowConfig, ShallowRun, ShallowThresholds, compute_bias_weights,
    grid_search_shallow, load_bias_weights, oracle_achievable_accuracy,
    oracle_band_thresholds, save_bias_weights, train_shallow, validate_shallow,
)
from debias_forge.synthgen import Columns


# floats whose shortest text is hardest to read back exactly: the least
# subnormal, the least normal, and neighbours of 0.1 and 1
HARD_WEIGHTS = BiasWeights(np.array([0, 1]),
                           np.array([[5e-324, 2.2250738585072014e-308, 1.0], [0.1, 0.9, 0.0]]),
                           np.array([0.9999999999999999, 0.1]), np.array([2, 1]))

FAST = ShallowConfig(sample_size=200, epochs=2, learning_rate=5e-3,
                     batch_size=32, hidden=8, feature_dim=130, seed=3)


def _uniform_model(vocab_size, num_labels, dim=130, hidden=8):
    """All-zero weights: softmax of zero logits is exactly uniform."""
    params = ModelParams(
        W1=np.zeros((dim, hidden)), b1=np.zeros(hidden),
        W2=np.zeros((hidden, num_labels)), b2=np.zeros(num_labels),
    )
    return Model(params=params, featurizer=Featurizer(vocab_size, dim),
                 num_labels=num_labels)


def test_config_validation(tiny_train):
    # every rule holds for a config built directly and for one replace()d
    for bad, match in [({"sample_size": 0}, "sample_size"), ({"epochs": 0}, "epochs"),
                       ({"batch_size": 0}, "batch_size"), ({"hidden": 0}, "hidden"),
                       ({"learning_rate": 0.0}, "learning_rate"), ({"adam_beta2": 1.5}, "beta2"),
                       ({"adam_beta2": 1.0}, "beta2"), ({"optimizer": "bogus"}, "optimizer"),
                       ({"hidden": MAX_W1_WEIGHTS // FAST.feature_dim + 1}, "MAX_W1_WEIGHTS")]:
        with pytest.raises(ConfigError, match=match):
            ShallowConfig(**{**vars(FAST), **bad})
        with pytest.raises(ConfigError, match=match):
            replace(FAST, **bad)
    # the cap is inclusive; building a config allocates nothing
    replace(FAST, feature_dim=MAX_W1_WEIGHTS // 64, hidden=64)
    # the one rule that needs the data, checked before a run starts
    whole = replace(FAST, sample_size=len(tiny_train))
    for start in (ShallowRun.start, train_shallow):
        with pytest.raises(ConfigError, match="smaller than the training set"):
            start(tiny_train, whole)


def test_train_shallow_deterministic(tiny_train):
    m1, ids1 = train_shallow(tiny_train, FAST)
    m2, ids2 = train_shallow(tiny_train, FAST)
    assert ids1 == ids2
    assert len(ids1) == FAST.sample_size
    for name, arr in m1.params.arrays().items():
        assert np.array_equal(arr, m2.params.arrays()[name])
    _, ids3 = train_shallow(tiny_train, replace(FAST, seed=4))
    assert ids3 != ids1


def test_bias_weights_cover_exactly_the_unseen(tiny_train):
    model, subset_ids = train_shallow(tiny_train, FAST)
    weights = compute_bias_weights(model, tiny_train.without(subset_ids))
    expected = {ex.id for ex in tiny_train.examples} - subset_ids
    assert weights.ids.tolist() == sorted(expected)
    assert weights.p_b.shape == (len(expected), 3)
    by_id = {ex.id: ex for ex in tiny_train.examples}
    for ex_id, p, p_correct, predicted in zip(weights.ids.tolist(), weights.p_b,
                                              weights.p_b_correct, weights.predicted):
        assert abs(p.sum() - 1.0) < 1e-9
        assert p_correct == p[by_id[ex_id].label]
        assert predicted == int(np.argmax(p))


def test_uniform_model_gives_chance_pb(tiny_train):
    model = _uniform_model(tiny_train.vocab_size, tiny_train.num_labels)
    weights = compute_bias_weights(model, tiny_train.without(set()))
    assert len(weights) == len(tiny_train)
    assert weights.p_b_correct == pytest.approx(np.full(len(tiny_train), 1 / 3), abs=1e-12)


def test_validate_flags_uniform_model_degenerate(tiny_train):
    model = _uniform_model(tiny_train.vocab_size, tiny_train.num_labels)
    diag = validate_shallow(model, tiny_train)
    assert diag.degenerate
    assert not diag.passed
    assert diag.high_conf_fraction == 0.0


def test_validate_band_logic(tiny_train):
    model, subset_ids = train_shallow(tiny_train, FAST)
    unseen = tiny_train.without(subset_ids)
    wide = ShallowThresholds(acc_band=(0.0, 1.0), high_conf_min=0.0,
                             degenerate_margin=0.0)
    assert validate_shallow(model, unseen, wide).passed
    narrow = ShallowThresholds(acc_band=(0.999, 1.0))
    assert not validate_shallow(model, unseen, narrow).passed
    with pytest.raises(DataError):
        validate_shallow(model, [])


def test_oracle_band(tiny_train, tiny_suite):
    # hand-derived center: rho*m + (1-rho)/K with empirical manipulation counts
    n = len(tiny_train)
    n_biased = sum(ex.bias_tag == "biased" for ex in tiny_train.examples)
    n_clean = sum(ex.bias_tag == "clean" for ex in tiny_train.examples)
    expect = (n_biased + n_clean / 3) / n
    assert oracle_achievable_accuracy(tiny_train) == pytest.approx(expect, abs=1e-12)
    th = oracle_band_thresholds(tiny_train, width=0.1)
    assert th.acc_band == pytest.approx((expect - 0.1, expect + 0.1), abs=1e-12)
    assert oracle_achievable_accuracy(tiny_suite["biased"]) == 1.0
    assert oracle_achievable_accuracy(tiny_suite["anti_biased"]) == 0.0


def test_oracle_band_reads_the_columns(tiny_train, monkeypatch):
    want, chance = 0.0, 1.0 / tiny_train.num_labels
    for ex in tiny_train:  # the per-example sum, in the same order
        want += chance if ex.bias_token is None else float(ex.bias_token == ex.label)
    want /= len(tiny_train)

    def refuse(self):
        raise AssertionError("built an Example per row")

    monkeypatch.setattr(Columns, "__iter__", refuse)
    assert oracle_band_thresholds(tiny_train, width=0.1).acc_band == (want - 0.1, want + 0.1)


def test_grid_search_prefers_smaller_cells(tiny_train):
    wide = ShallowThresholds(acc_band=(0.0, 1.0), high_conf_min=0.0,
                             degenerate_margin=0.0)
    best, rows, _ = grid_search_shallow(tiny_train, [400, 200], [2, 1],
                                        base_cfg=FAST, thresholds=wide)
    assert (best.sample_size, best.epochs) == (200, 1)
    assert len(rows) == 4
    assert all(r["pass"] for r in rows)


def test_grid_search_featurizes_each_sizes_unseen_once(tiny_train, featurized):
    wide = ShallowThresholds(acc_band=(0.0, 1.0), high_conf_min=0.0, degenerate_margin=0.0)
    grid_search_shallow(tiny_train, [400, 200], [2, 1], base_cfg=FAST, thresholds=wide)
    # per size: its subset, then its unseen examples once for both its cells
    assert featurized == [200, 600, 400, 400]


def test_grid_search_no_pass_returns_none(tiny_train):
    narrow = ShallowThresholds(acc_band=(0.999, 1.0))
    best, rows, best_fit = grid_search_shallow(tiny_train, [200], [1],
                                               base_cfg=FAST, thresholds=narrow)
    assert best is None and best_fit is None
    assert len(rows) == 1 and not rows[0]["pass"]
    with pytest.raises(ConfigError):
        grid_search_shallow(tiny_train, [], [1], base_cfg=FAST)
    for sizes, epoch_counts in (([200, 200], [1]), ([200], [2, 1, 2])):
        with pytest.raises(ConfigError, match="repeat"):
            grid_search_shallow(tiny_train, sizes, epoch_counts, base_cfg=FAST)


def _same_params(a, b):
    return all(arr.dtype == b.params.arrays()[name].dtype
               and arr.tobytes() == b.params.arrays()[name].tobytes()
               for name, arr in a.params.arrays().items())


def _grid_by_fresh_runs(train, sizes, epoch_counts, base_cfg, thresholds):
    """Reference grid: one fresh train_shallow run per cell, scored at once."""
    best, rows, models = None, [], []
    for n_s in sorted(sizes):
        for e_s in sorted(epoch_counts):
            cfg = replace(base_cfg, sample_size=n_s, epochs=e_s)
            model, subset_ids = train_shallow(train, cfg)
            models.append(model)
            unseen = [ex for ex in train.examples if ex.id not in subset_ids][:5000]
            diag = validate_shallow(model, replace(train, examples=unseen), thresholds)
            rows.append({"n_s": n_s, "e_s": e_s, "unseen_acc": diag.unseen_accuracy,
                         "high_conf_frac": diag.high_conf_fraction,
                         "degenerate": diag.degenerate, "pass": diag.passed})
            if diag.passed and best is None:
                best = (cfg, model, diag)
    return best, rows, models


def test_grid_search_equals_fresh_run_per_cell(tiny_train, monkeypatch):
    sizes, epoch_counts = [400, 200], [3, 1, 2]
    wide = ShallowThresholds(acc_band=(0.0, 1.0), high_conf_min=0.0,
                             degenerate_margin=0.0)
    _, ref_rows, ref_models = _grid_by_fresh_runs(tiny_train, sizes, epoch_counts,
                                                  FAST, wide)
    # a one-point band on the last cell's accuracy: the first cell does not pass
    target = ref_rows[-1]["unseen_acc"]
    for band in [(0.0, 1.0), (target, target)]:
        thresholds = replace(wide, acc_band=band)
        ref_best, ref_rows, _ = _grid_by_fresh_runs(tiny_train, sizes, epoch_counts,
                                                    FAST, thresholds)
        # capture every cell's model the way the benchmark does
        captured = []
        train_fn = shallow.train_shallow

        def keep_model(*args, **kwargs):
            model, subset_ids = train_fn(*args, **kwargs)
            captured.append(model)
            return model, subset_ids

        monkeypatch.setattr(shallow, "train_shallow", keep_model)
        best, rows, (model, diag) = grid_search_shallow(
            tiny_train, sizes, epoch_counts, base_cfg=FAST, thresholds=thresholds)
        monkeypatch.undo()
        assert rows == ref_rows
        assert best == ref_best[0]
        assert diag == ref_best[2]
        assert model.meta == ref_best[1].meta and _same_params(model, ref_best[1])
        assert len(captured) == len(ref_models) == 6
        assert all(_same_params(a, b) for a, b in zip(captured, ref_models))
    assert best != replace(FAST, sample_size=200, epochs=1)


def test_continued_run_equals_fresh_run(tiny_train):
    cfg1, cfg3 = replace(FAST, epochs=1), replace(FAST, epochs=3)
    run = ShallowRun.start(tiny_train, cfg1)
    short, ids1 = train_shallow(tiny_train, cfg1, run=run)
    long, ids3 = train_shallow(tiny_train, cfg3, run=run)
    assert run.loop.epochs == 3
    for cfg, model, ids in ((cfg1, short, ids1), (cfg3, long, ids3)):
        fresh, fresh_ids = train_shallow(tiny_train, cfg)
        assert ids == fresh_ids
        assert model.meta == fresh.meta
        assert _same_params(model, fresh)
    assert not _same_params(short, long)


def test_continuing_a_foreign_or_later_run_raises(tiny_train):
    run = ShallowRun.start(tiny_train, FAST)
    for other in (replace(FAST, sample_size=100), replace(FAST, seed=4)):
        with pytest.raises(ConfigError, match="only epochs may differ"):
            train_shallow(tiny_train, other, run=run)
    assert run.loop.epochs == 0
    train_shallow(tiny_train, replace(FAST, epochs=3), run=run)
    with pytest.raises(ConfigError, match="past the requested 2"):
        train_shallow(tiny_train, replace(FAST, epochs=2), run=run)
    assert run.loop.epochs == 3


def test_stability_study_shapes(tiny_train, tiny_suite):
    mixed = tiny_train
    rows = stability_study(tiny_train, FAST, 2, mixed)
    assert len(rows) == 2
    assert rows[0]["seed"] != rows[1]["seed"]
    for r in rows:
        assert r["easy_n"] + r["hard_n"] == len(mixed)
        assert 0 <= r["overall_acc"] <= 1
    with pytest.raises(ConfigError):
        stability_study(tiny_train, FAST, 1, mixed)


def test_stability_study_same_rows_for_any_jobs(tiny_train):
    # one seed on two processes: the three runs are cut into two pieces
    eval_ds = replace(tiny_train, examples=tiny_train.examples[:300])
    rows = stability_study(tiny_train, FAST, 3, eval_ds)
    assert [r["run"] for r in rows] == [0, 1, 2]
    assert stability_study(tiny_train, FAST, 3, eval_ds, jobs=2) == rows


def test_stability_study_featurizes_eval_ds_once(tiny_train, featurized):
    eval_ds = replace(tiny_train, examples=tiny_train.examples[:300])
    stability_study(tiny_train, FAST, 2, eval_ds)
    # per run: its subset and its unseen examples; eval_ds once for the study
    assert featurized == [200, 600, 300, 200, 600]


def test_bias_weights_roundtrip(tiny_train, tmp_path):
    model, subset_ids = train_shallow(tiny_train, FAST)
    weights = compute_bias_weights(model, tiny_train.without(subset_ids))
    p1 = tmp_path / "w.jsonl"
    p2 = tmp_path / "w2.jsonl"
    save_bias_weights(weights, p1)
    loaded = load_bias_weights(p1, tiny_train.num_labels)
    for name in ("ids", "p_b", "p_b_correct", "predicted"):
        assert np.array_equal(getattr(loaded, name), getattr(weights, name))
    save_bias_weights(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    save_bias_weights(HARD_WEIGHTS, p1)
    assert "5e-324, 2.2250738585072014e-308" in p1.read_text()
    save_bias_weights(load_bias_weights(p1, 3), p2)
    assert p1.read_bytes() == p2.read_bytes()


GOOD_WEIGHTS = ('{"id": 1, "p_b": [0.2, 0.3, 0.5], "p_b_correct": 0.5, "predicted": 2}\n'
                '{"id": 2, "p_b": [1, 0, 0], "p_b_correct": 0, "predicted": 0}\n')
BAD_WEIGHTS = {  # a third line that breaks one rule -> the message it gets
    '{"id": 3, "p_b": [0.2, 0.3, 0.5], "predicted": 2}':
        "malformed weights record: KeyError('p_b_correct')",
    '{"id": "3", "p_b": [0.2, 0.3, 0.5], "p_b_correct": 0.5, "predicted": 2}':
        "id must be an integer, got '3'",
    '{"id": 9223372036854775808, "p_b": [0.2, 0.3, 0.5], "p_b_correct": 0.5, "predicted": 2}':
        "id 9223372036854775808 outside the int64 range",
    '{"id": 3, "p_b": [0.5, 0.5], "p_b_correct": 0.5, "predicted": 0}':
        "p_b length != num_labels 3",
    '{"id": 3, "p_b": [0.2, 0.3, 0.6], "p_b_correct": 0.3, "predicted": 2}':
        "p_b must be probabilities in [0, 1] summing to 1, got [0.2, 0.3, 0.6]",
    '{"id": 3, "p_b": [0.2, 0.3, 0.5], "p_b_correct": 1.5, "predicted": 2}':
        "p_b_correct must be a probability in [0, 1], got 1.5",
    '{"id": 3, "p_b": [0.2, 0.3, 0.5], "p_b_correct": 0.5, "predicted": 3}':
        "predicted must be a label in [0, 3), got 3",
    '{"id": 1, "p_b": [0.2, 0.3, 0.5], "p_b_correct": 0.5, "predicted": 2}':
        "duplicate id 1",
}


def test_bias_weights_load_errors(tmp_path):
    """Each rule names the line it fails on, with its message."""
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(GOOD_WEIGHTS)
    assert load_bias_weights(good, 3).ids.tolist() == [1, 2]
    for line, message in BAD_WEIGHTS.items():
        bad.write_text(GOOD_WEIGHTS + line + "\n")
        with pytest.raises(DataError) as err:
            load_bias_weights(bad, 3)
        assert str(err.value).startswith(f"{bad}:3: {message}")
