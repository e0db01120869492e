"""Shallow bias-identification model: train on a small random subset for a
few epochs, score the remaining (unseen) training examples, and support the
selection grid search.
"""

from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from .classifier import Featurizer, MinibatchRun, Model, check_run_config
from .errors import ConfigError, DataError, read_json_lines
from .rng import substream

# unseen examples that score a shallow model's diagnosis
MAX_UNSEEN = 5000


@dataclass(frozen=True)
class ShallowConfig:
    sample_size: int = 2000
    epochs: int = 50
    learning_rate: float = 2e-2
    batch_size: int = 32
    hidden: int = 64
    feature_dim: int = 2064
    optimizer: str = "adam"
    # fast second-moment decay keeps rare-feature updates large, which is
    # what drives the deliberately overconfident, bias-reliant fit
    adam_beta2: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.sample_size < 1:
            raise ConfigError("sample_size must be >= 1")
        check_run_config(self)


def check_sample_size(sample_size: int, train):
    """ConfigError unless a subset of sample_size leaves some of train unseen."""
    if sample_size >= len(train):
        raise ConfigError(f"sample_size {sample_size} must be smaller than the "
                          f"training set ({len(train)})")


@dataclass(frozen=True)
class ShallowThresholds:
    acc_band: tuple = (0.60, 0.70)
    high_conf_min: float = 0.90
    conf_threshold: float = 0.90
    degenerate_margin: float = 0.02


def oracle_achievable_accuracy(dataset) -> float:
    """Expected accuracy of the bias oracle, counting abstentions as chance."""
    if not len(dataset):
        raise DataError("empty dataset")
    chance = 1.0 / dataset.num_labels
    total = 0.0
    for token, label in zip(dataset.examples.bias_tokens.tolist(), dataset.labels().tolist()):
        total += chance if token < 0 else float(token == label)
    return total / len(dataset)


def oracle_band_thresholds(dataset, width: float = 0.10,
                           base: ShallowThresholds = ShallowThresholds()) -> ShallowThresholds:
    """Thresholds whose accuracy band straddles bias-only performance."""
    center = oracle_achievable_accuracy(dataset)
    return replace(base, acc_band=(center - width, center + width))


@dataclass(frozen=True)
class ShallowSelection:
    """The grid of shallow runs, and the accuracy band and confidence floor a
    run must pass; an `oracle` band is oracle_achievable_accuracy ± band_width."""
    grid_sizes: list[int] = field(default_factory=lambda: [500, 1000, 1500, 2000])
    grid_epochs: list[int] = field(default_factory=lambda: [20, 50, 100])
    acc_band: Literal["oracle"] | tuple[float, float] = "oracle"
    band_width: float = 0.10
    high_conf_min: float = 0.90

    def __post_init__(self):
        """ConfigError on a band that no accuracy can pass; the oracle band's
        ends may lie outside [0, 1]."""
        if self.band_width < 0:
            raise ConfigError(f"shallow.band_width must be >= 0, got {self.band_width}")
        if not 0 <= self.high_conf_min <= 1:
            raise ConfigError(f"shallow.high_conf_min must lie in [0, 1], "
                              f"got {self.high_conf_min}")
        if self.acc_band != "oracle" and not 0 <= self.acc_band[0] <= self.acc_band[1] <= 1:
            raise ConfigError(f"shallow.acc_band needs 0 <= lo <= hi <= 1, got {self.acc_band}")

    def thresholds(self, dataset) -> ShallowThresholds:
        """The selection thresholds, an oracle band centered on dataset's oracle."""
        base = ShallowThresholds(high_conf_min=self.high_conf_min)
        if self.acc_band == "oracle":
            return oracle_band_thresholds(dataset, width=self.band_width, base=base)
        return replace(base, acc_band=(float(self.acc_band[0]), float(self.acc_band[1])))


@dataclass
class ShallowDiagnosis:
    unseen_accuracy: float
    high_conf_fraction: float
    degenerate: bool
    passed: bool
    mean_confidence: float
    histogram: dict = field(default_factory=dict)


@dataclass
class BiasWeights:
    """Per-example shallow-model output as columns in ascending id order:
    int64 ids, each example's (n, K) p_b, p_b_correct and predicted label."""
    ids: np.ndarray
    p_b: np.ndarray
    p_b_correct: np.ndarray
    predicted: np.ndarray

    def __len__(self):
        return len(self.ids)

    def p_b_of(self, ids) -> np.ndarray:
        """The p_b rows of ids; DataError names the first id without any."""
        missing = ~np.isin(ids, self.ids)
        if missing.any():
            raise DataError(f"no bias weights for training example id {ids[np.argmax(missing)]}")
        return self.p_b[np.searchsorted(self.ids, ids)]


@dataclass
class ShallowRun:
    """A shallow training run that can be continued to more epochs: the
    subset ids, featurizer and one-hot targets around the MinibatchRun that
    trains the subset under `cfg` (whose own epochs are ignored)."""
    cfg: ShallowConfig
    featurizer: Featurizer
    onehot: np.ndarray
    subset_ids: set
    loop: MinibatchRun

    @classmethod
    def start(cls, train, cfg: ShallowConfig):
        """Pick the seeded subset, featurize it and initialize; no epochs yet."""
        check_sample_size(cfg.sample_size, train)
        pick = substream(cfg.seed, "subsample").permutation(len(train))[:cfg.sample_size]
        subset = train.examples.take(np.sort(pick))
        featurizer = Featurizer(vocab_size=train.vocab_size, dim=cfg.feature_dim)
        onehot = np.eye(train.num_labels)[subset.labels]
        return cls(cfg=cfg, featurizer=featurizer, onehot=onehot,
                   subset_ids=set(subset.ids.tolist()),
                   loop=MinibatchRun(featurizer.matrix(subset), train.num_labels, cfg))


def train_shallow(train, cfg: ShallowConfig, run: ShallowRun = None):
    """Train on a seeded uniform subsample; returns (Model, subset id set).

    With `run`, continue that run from its epoch count to cfg.epochs instead
    of starting afresh; the run must have been started on the same training
    set with the same config apart from epochs. The model equals a fresh
    cfg.epochs run bit for bit, and continuing the run further leaves it
    unchanged.
    """
    if run is None:
        run = ShallowRun.start(train, cfg)
    elif replace(run.cfg, epochs=cfg.epochs) != cfg:
        raise ConfigError(f"cannot continue a shallow run started with {run.cfg} "
                          f"under {cfg}: only epochs may differ")
    elif run.loop.epochs > cfg.epochs:
        raise ConfigError(f"shallow run is already at {run.loop.epochs} epochs, "
                          f"past the requested {cfg.epochs}")
    for idx in run.loop.batches(cfg.epochs):
        run.loop.step(idx, run.onehot[idx], np.ones(idx.size))

    model = Model(params=run.loop.params, featurizer=run.featurizer, num_labels=train.num_labels,
                  meta={"role": "shallow", "seed": cfg.seed,
                        "subset_ids": sorted(run.subset_ids)})
    return model, run.subset_ids


def compute_bias_weights(shallow: Model, unseen) -> BiasWeights:
    """Score every example of `unseen`, the training set without the shallow subset."""
    if not len(unseen):
        raise DataError("no unseen examples left after removing the shallow subset")
    probs = shallow.predict_proba(unseen)
    order = np.argsort(unseen.examples.ids)
    p_b, labels = probs[order], unseen.labels()[order]
    return BiasWeights(unseen.examples.ids[order], p_b, p_b[np.arange(len(p_b)), labels],
                       p_b.argmax(axis=1))


def validate_shallow(shallow: Model, unseen, thresholds: ShallowThresholds = ShallowThresholds()):
    """Accuracy / confidence diagnosis on held-out unseen examples: a
    Dataset disjoint from the shallow subset."""
    if not len(unseen):
        raise DataError("empty unseen set")
    probs = shallow.predict_proba(unseen)
    y = unseen.labels()
    pred = np.argmax(probs, axis=1)
    maxp = probs[np.arange(len(unseen)), pred]
    acc = float(np.mean(pred == y))
    high_conf = float(np.mean(maxp > thresholds.conf_threshold))
    chance = 1.0 / shallow.num_labels
    degenerate = abs(acc - chance) <= thresholds.degenerate_margin

    edges = np.arange(chance, 1.0 + 1e-9, 0.05)
    if edges[-1] < 1.0:
        edges = np.append(edges, 1.0)
    counts, _ = np.histogram(maxp, bins=edges)
    hist = {"edges": edges.tolist(), "counts": counts.tolist()}

    lo, hi = thresholds.acc_band
    passed = (not degenerate) and lo <= acc <= hi and high_conf >= thresholds.high_conf_min
    return ShallowDiagnosis(
        unseen_accuracy=acc,
        high_conf_fraction=high_conf,
        degenerate=degenerate,
        passed=passed,
        mean_confidence=float(maxp.mean()),
        histogram=hist,
    )


def grid_search_shallow(train, sizes, epoch_counts, base_cfg: ShallowConfig = ShallowConfig(),
                        thresholds: ShallowThresholds = ShallowThresholds()):
    """One shallow model per (sample_size, epochs) cell, scored on up to
    MAX_UNSEEN unseen examples.

    Every cell is checked against the training-set size before any trains.
    Each sample size is trained once: its cells, in ascending epochs, continue
    one run, so the cost is the largest epoch count per size and every cell
    equals a fresh train_shallow run of its own. The size's unseen examples
    are one Dataset, so they are featurized once and score all its cells.

    Returns (best ShallowConfig or None, report rows, (model, ShallowDiagnosis)
    of the best cell or None). The first passing cell under (smallest
    sample_size, then smallest epochs) wins; a grid with no passing cell
    returns best=None rather than raising.
    """
    if not sizes or not epoch_counts:
        raise ConfigError("grid sizes and epoch_counts must be non-empty")
    if len(set(sizes)) < len(sizes) or len(set(epoch_counts)) < len(epoch_counts):
        raise ConfigError(f"grid values must not repeat, got sizes {sizes} "
                          f"and epoch_counts {epoch_counts}")
    grid = []
    for n_s in sorted(sizes):
        check_sample_size(n_s, train)
        grid.append([replace(base_cfg, sample_size=n_s, epochs=e_s)
                     for e_s in sorted(epoch_counts)])
    rows = []
    best = best_fit = None
    for cfgs in grid:
        run = ShallowRun.start(train, cfgs[0])
        unseen = train.without(run.subset_ids, MAX_UNSEEN)
        fits = [train_shallow(train, cfg, run=run) for cfg in cfgs]
        # score only once the optimizer state is released, to keep peak memory
        # down; the cells share the run's featurizer
        del run
        for cfg, (model, _) in zip(cfgs, fits):
            diag = validate_shallow(model, unseen, thresholds)
            rows.append({
                "n_s": cfg.sample_size, "e_s": cfg.epochs,
                "unseen_acc": diag.unseen_accuracy,
                "high_conf_frac": diag.high_conf_fraction,
                "degenerate": diag.degenerate,
                "pass": diag.passed,
            })
            if diag.passed and best is None:
                best, best_fit = cfg, (model, diag)
        del unseen  # nor hold its matrix while the next size trains
    return best, rows, best_fit


def save_bias_weights(weights: BiasWeights, path):
    """One line per example in id order, as json.dumps(record, sort_keys=True) writes it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"id": {i}, "p_b": [{", ".join(map(repr, p))}], "p_b_correct": {c!r}, '
            f'"predicted": {k}}}\n'
            for i, p, c, k in zip(weights.ids.tolist(), weights.p_b.tolist(),
                                  weights.p_b_correct.tolist(), weights.predicted.tolist()))


def load_bias_weights(path, num_labels: int) -> BiasWeights:
    """Read a weights file; every record needs an integer id in the int64
    range, a p_b of num_labels probabilities in [0, 1] summing to 1, a
    p_b_correct in [0, 1] and a predicted label in [0, num_labels)."""
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
        p_b += p
        p_correct.append(c)
        predicted.append(k)
    ids = np.array(ids, np.int64)
    order = np.argsort(ids)
    return BiasWeights(ids[order], np.array(p_b, np.float64).reshape(-1, num_labels)[order],
                       np.array(p_correct, np.float64)[order], np.array(predicted, np.int64)[order])
