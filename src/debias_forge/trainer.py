"""Main-model training: per-step debiasing targets and annealing on the
shared minibatch loop, teacher training for confidence regularization, and
batch-loss telemetry.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import objectives
from .classifier import Featurizer, MinibatchRun, Model, check_model_data, check_run_config
from .errors import ConfigError, DataError, read_json_lines
from .objectives import AnnealSchedule, anneal_alpha

PERCENTILE_LEVELS = (0, 25, 50, 75, 100)


@dataclass(frozen=True)
class TrainConfig:
    method: str = "baseline_ce"
    epochs: int = 3
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    adam_beta2: float = 0.999
    hidden: int = 64
    feature_dim: int = 2064
    anneal: AnnealSchedule = field(default_factory=AnnealSchedule)
    eval_every: int = 250
    seed: int = 0
    weights_path: str = ""

    def __post_init__(self):
        if self.method not in objectives.METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        check_run_config(self)


def loss_percentiles(batch_losses):
    """Nearest-rank percentiles (PERCENTILE_LEVELS) of the batch losses."""
    return np.percentile(batch_losses, PERCENTILE_LEVELS, method="inverted_cdf").tolist()


def train_main(train, weights, cfg: TrainConfig, eval_suite=None, teacher=None):
    """Run one training; returns (Model, metrics list of dicts).

    train: Dataset (the main-training set), not empty. weights: BiasWeights
    or None (required for every method except baseline_ce). eval_suite:
    optional dict of split -> Dataset evaluated every cfg.eval_every steps.
    teacher: frozen Model, required when method == "conf_reg".
    """
    if not len(train):
        raise DataError("empty training set: no examples to train on")
    K = train.num_labels
    for ds in (eval_suite or {}).values():  # refused before training, not at the first eval
        check_model_data(ds, K, train.vocab_size)
    featurizer = Featurizer(vocab_size=train.vocab_size, dim=cfg.feature_dim)
    X = train.matrix(featurizer)
    y = train.labels()
    n = len(train)

    p_b = None
    if cfg.method != "baseline_ce":
        if weights is None:
            raise ConfigError(f"method {cfg.method!r} requires bias weights")
        p_b = weights.p_b_of(train.examples.ids)

    p_t = None
    if cfg.method == "conf_reg":
        if teacher is None:
            raise ConfigError("method 'conf_reg' requires a trained teacher")
        p_t = teacher.predict_proba(train)  # frozen, precomputed once

    run = MinibatchRun(X, K, cfg)
    total_steps = cfg.epochs * math.ceil(n / cfg.batch_size)

    metrics = []
    for idx in run.batches(cfg.epochs):
        alpha = anneal_alpha(run.state.step, cfg.anneal, total_steps)
        targets, w, offset = objectives.build_targets(
            cfg.method, y[idx], K,
            p_b=None if p_b is None else p_b[idx],
            p_t=None if p_t is None else p_t[idx],
            alpha=alpha,
        )
        losses, grads = run.step(idx, targets, w, offset)
        step = run.state.step

        rec = {"step": step, "mean_loss": float(losses.mean()),
               "alpha": alpha, "clamped": grads.clamped}
        rec.update(zip((f"p{p}" for p in PERCENTILE_LEVELS), loss_percentiles(losses)))
        if eval_suite and (step % cfg.eval_every == 0 or step == total_steps):
            model = Model(params=run.params, featurizer=featurizer, num_labels=K)
            for split, ds in eval_suite.items():
                rec[f"acc_{split}"] = float(np.mean(model.predict(ds) == ds.labels()))
        metrics.append(rec)

    return Model(params=run.params, featurizer=featurizer, num_labels=K,
                 meta={"method": cfg.method, "seed": cfg.seed}), metrics


def train_teacher(train, cfg: TrainConfig):
    """Standard cross-entropy training on the main-training set; frozen after."""
    base = replace(cfg, method="baseline_ce", anneal=AnnealSchedule())
    model, _ = train_main(train, None, base)
    return model


def write_metrics(metrics, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in metrics:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_metrics(path):
    """The records of a metrics file; DataError on a line that is not a JSON
    object with an integer step, whose acc_* and alpha values are finite reals."""
    records = []
    for lineno, rec in read_json_lines(path):
        if not isinstance(rec, dict):
            raise DataError(f"{path}:{lineno}: a metrics record must be a JSON object, "
                            f"got {rec!r:.80}")
        if type(rec.get("step")) is not int:
            raise DataError(f"{path}:{lineno}: a metrics record needs an integer step, "
                            f"got {rec.get('step')!r:.80}")
        for key, value in rec.items():
            if (key.startswith("acc_") or key == "alpha") and not (
                    type(value) in (int, float) and math.isfinite(value)):
                raise DataError(f"{path}:{lineno}: metrics value {key!r} must be a finite "
                                f"real, got {value!r:.80}")
        records.append(rec)
    return records
