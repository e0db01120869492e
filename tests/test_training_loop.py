"""The shared minibatch loop against the two loops it replaced.

`_reference_train_main` and `_reference_train_shallow` are the separate
training loops of `trainer.train_main` and `shallow.train_shallow` before
both moved onto `classifier.MinibatchRun`, kept here as the reference: the
library's params and metrics records must equal theirs float for float.
They update with `_DenseOptimizer`, the dense in-place SGD/Adam that
`classifier.opt_step` replaced, on the dense gradients of `grads.arrays()`,
so they also check the row-sparse first-layer update against the dense one.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import nearest_rank_percentiles

from debias_forge import objectives
from debias_forge.classifier import Featurizer, Model, forward, init_params, loss_and_grad
from debias_forge.errors import NumericError
from debias_forge.objectives import METHODS, AnnealSchedule, anneal_alpha
from debias_forge.rng import substream
from debias_forge.shallow import ShallowConfig, ShallowRun, compute_bias_weights, train_shallow
from debias_forge.trainer import TrainConfig, train_main, train_teacher

TRAIN = TrainConfig(epochs=2, batch_size=64, learning_rate=2e-3, hidden=8,
                    feature_dim=130, eval_every=5, seed=3)
SHALLOW = ShallowConfig(sample_size=200, epochs=3, learning_rate=5e-3, batch_size=32,
                        hidden=8, feature_dim=130, seed=3)


class _DenseOptimizer:
    """The dense in-place update: every gradient term over every array."""

    def __init__(self, learning_rate, mode, beta2, beta1=0.9, eps=1e-8):
        self.lr, self.mode, self.eps = learning_rate, mode, eps
        self.beta1, self.beta2 = beta1, beta2
        self.step, self.m, self.v, self.scratch = 0, {}, {}, {}

    def update(self, params, grads):
        garrs = grads.arrays()
        for name, g in garrs.items():
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in {name}; step aborted")
        self.step += 1
        lr, t = self.lr, self.step
        parrs = params.arrays()
        for name, g in garrs.items():
            if self.mode == "sgd":
                parrs[name] -= lr * g
                continue
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(g), np.zeros_like(g)
                self.scratch[name] = (np.empty_like(g), np.empty_like(g))
            m, v = self.m[name], self.v[name]
            s1, s2 = self.scratch[name]
            m *= self.beta1
            np.multiply(g, 1 - self.beta1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(g, 1 - self.beta2, out=s1)
            s1 *= g
            v += s1
            np.divide(m, 1 - self.beta1 ** t, out=s1)
            s1 *= lr
            np.divide(v, 1 - self.beta2 ** t, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 /= s2
            parrs[name] -= s1


def _reference_train_main(train, weights, cfg, eval_suite=None, teacher=None):
    K = train.num_labels
    featurizer = Featurizer(vocab_size=train.vocab_size, dim=cfg.feature_dim)
    X = featurizer.matrix(train.examples)
    y = train.labels()
    n = len(train.examples)
    p_b = None
    if cfg.method != "baseline_ce":
        row = dict(zip(weights.ids.tolist(), weights.p_b))
        p_b = np.array([row[ex.id] for ex in train.examples])
    p_t = forward(teacher.params, X) if cfg.method == "conf_reg" else None
    eval_matrices = {split: (featurizer.matrix(ds.examples), ds.labels())
                     for split, ds in (eval_suite or {}).items()}

    params = init_params(cfg.feature_dim, cfg.hidden, K, substream(cfg.seed, "init"))
    opt = _DenseOptimizer(cfg.learning_rate, cfg.optimizer, cfg.adam_beta2)
    shuffle_rng = substream(cfg.seed, "shuffle")
    total_steps = cfg.epochs * math.ceil(n / cfg.batch_size)

    metrics = []
    step = 0
    for _epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            alpha = anneal_alpha(step, cfg.anneal, total_steps)
            targets, w, offset = objectives.build_targets(
                cfg.method, y[idx], K,
                p_b=None if p_b is None else p_b[idx],
                p_t=None if p_t is None else p_t[idx],
                alpha=alpha,
            )
            losses, grads = loss_and_grad(params, X[idx], targets, w, offset)
            opt.update(params, grads)
            step += 1
            p0, p25, p50, p75, p100 = nearest_rank_percentiles(losses)
            rec = {"step": step, "mean_loss": float(losses.mean()),
                   "p0": p0, "p25": p25, "p50": p50, "p75": p75, "p100": p100,
                   "alpha": alpha, "clamped": grads.clamped}
            if eval_matrices and (step % cfg.eval_every == 0 or step == total_steps):
                for split, (Xe, ye) in eval_matrices.items():
                    p = forward(params, Xe)
                    rec[f"acc_{split}"] = float(np.mean(np.argmax(p, axis=1) == ye))
            metrics.append(rec)
    return Model(params=params, featurizer=featurizer, num_labels=K,
                 meta={"method": cfg.method, "seed": cfg.seed}), metrics


def _reference_train_shallow(train, cfg):
    K = train.num_labels
    pick = substream(cfg.seed, "subsample").permutation(len(train))[:cfg.sample_size]
    subset = [train.examples[int(i)] for i in sorted(pick)]
    featurizer = Featurizer(vocab_size=train.vocab_size, dim=cfg.feature_dim)
    X = featurizer.matrix(subset)
    onehot = np.zeros((len(subset), K))
    onehot[np.arange(len(subset)), [ex.label for ex in subset]] = 1.0

    params = init_params(cfg.feature_dim, cfg.hidden, K, substream(cfg.seed, "init"))
    opt = _DenseOptimizer(cfg.learning_rate, cfg.optimizer, cfg.adam_beta2)
    shuffle_rng = substream(cfg.seed, "shuffle")
    n = len(subset)
    for _epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, grads = loss_and_grad(params, X[idx], onehot[idx], np.ones(idx.size))
            opt.update(params, grads)
    subset_ids = set(ex.id for ex in subset)
    return Model(params=params, featurizer=featurizer, num_labels=K,
                 meta={"role": "shallow", "seed": cfg.seed,
                       "subset_ids": sorted(subset_ids)}), subset_ids


def _assert_same_model(model, ref):
    assert model.meta == ref.meta
    assert model.num_labels == ref.num_labels and model.featurizer == ref.featurizer
    for name, arr in ref.params.arrays().items():
        assert np.array_equal(model.params.arrays()[name], arr), name


@pytest.fixture(scope="module")
def reference_stage(tiny_train):
    """Bias weights of every example from a reference shallow run, and the
    reference baseline model as the conf_reg teacher."""
    shallow_model, _ = _reference_train_shallow(tiny_train, SHALLOW)
    weights = compute_bias_weights(shallow_model, tiny_train.without(set()))
    teacher, _ = _reference_train_main(tiny_train, None, TRAIN)
    return weights, teacher


@pytest.mark.parametrize("method", METHODS)
def test_train_main_equals_reference_loop(tiny_train, tiny_suite, reference_stage, method):
    weights, teacher = reference_stage
    cfg = replace(TRAIN, method=method)
    if method == "poe":
        cfg = replace(cfg, anneal=AnnealSchedule(a=0.2, enabled=True))
    weights = None if method == "baseline_ce" else weights
    teacher = teacher if method == "conf_reg" else None
    model, metrics = train_main(tiny_train, weights, cfg, eval_suite=tiny_suite, teacher=teacher)
    ref_model, ref_metrics = _reference_train_main(tiny_train, weights, cfg,
                                                   eval_suite=tiny_suite, teacher=teacher)
    assert metrics == ref_metrics
    assert len(metrics) == 2 * math.ceil(len(tiny_train) / TRAIN.batch_size)
    assert sum("acc_anti_biased" in rec for rec in metrics) == 6
    _assert_same_model(model, ref_model)


def test_teacher_equals_reference_baseline(tiny_train, reference_stage):
    _, ref_teacher = reference_stage
    teacher = train_teacher(tiny_train, replace(TRAIN, method="conf_reg"))
    for name, arr in ref_teacher.params.arrays().items():
        assert np.array_equal(teacher.params.arrays()[name], arr), name


def test_continued_shallow_run_equals_reference_runs(tiny_train):
    cfg1 = replace(SHALLOW, epochs=1)
    run = ShallowRun.start(tiny_train, cfg1)
    short, short_ids = train_shallow(tiny_train, cfg1, run=run)
    long, long_ids = train_shallow(tiny_train, SHALLOW, run=run)
    fresh, fresh_ids = train_shallow(tiny_train, SHALLOW)
    ref_short, ref_ids = _reference_train_shallow(tiny_train, cfg1)
    ref_long, _ = _reference_train_shallow(tiny_train, SHALLOW)
    assert short_ids == long_ids == fresh_ids == ref_ids
    # the 1-epoch model keeps its params after the run goes on to 3 epochs
    _assert_same_model(short, ref_short)
    _assert_same_model(long, ref_long)
    _assert_same_model(fresh, ref_long)



def test_shallow_run_past_the_bias_correction_skip_equals_reference(tiny_train):
    # 60 epochs of 7 batches are 420 steps: at beta1 = adam_beta2 = 0.9 both
    # bias corrections round to 1.0 from step 356 on, where opt_step skips
    # the divisions that the reference's dense update keeps
    cfg = replace(SHALLOW, epochs=60)
    assert cfg.adam_beta2 == 0.9 and cfg.epochs * math.ceil(cfg.sample_size / cfg.batch_size) > 356
    model, ids = train_shallow(tiny_train, cfg)
    ref, ref_ids = _reference_train_shallow(tiny_train, cfg)
    assert ids == ref_ids
    _assert_same_model(model, ref)
