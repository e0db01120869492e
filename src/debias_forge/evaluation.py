"""Evaluation and analysis: split accuracy, confidence histograms, and the
bias-proportion, annealing and stability studies, whose rows match for any `jobs`.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .classifier import check_model_data
from .errors import ConfigError, DataError
from .objectives import AnnealSchedule
from .shallow import ShallowConfig, compute_bias_weights, train_shallow, validate_shallow
from .synthgen import SynthConfig, gen_dataset, inject_bias, make_eval_suite
from .trainer import TrainConfig, train_main, train_teacher

# the most bins a confidence histogram may have: every bin_width >= 1e-5 stays
# below it for any label count, and a width far below would exhaust memory
MAX_BINS = 100_000


def accuracy(model, split) -> float:
    """Fraction of argmax predictions on a Dataset matching gold (ties ->
    lowest label)."""
    if not len(split):
        raise DataError("empty split")
    return float(np.mean(model.predict(split) == split.labels()))


@dataclass
class ConfidenceHistogram:
    edges: list            # len B+1, spans [1/K, 1]
    counts: list           # len B
    correct: list          # len B
    correct_fraction: list
    mean_confidence: float


def confidence_histogram(model, split, bin_width: float = 0.05) -> ConfidenceHistogram:
    """Histogram of max predicted probability over [1/K, 1], with per-bin
    correct-prediction counts; at most MAX_BINS bins."""
    if bin_width <= 0 or bin_width > 1:
        raise ConfigError("bin_width must be in (0, 1]")
    lo = 1.0 / model.num_labels
    if (1.0 - lo) / bin_width > MAX_BINS:
        raise ConfigError(f"bin_width {bin_width} cuts [1/K, 1] into more than "
                          f"MAX_BINS = {MAX_BINS} bins")
    if not len(split):
        raise DataError("empty split")
    probs = model.predict_proba(split)
    pred = np.argmax(probs, axis=1)
    maxp = probs[np.arange(len(split)), pred]
    gold = split.labels()

    edges = [lo]
    while edges[-1] + bin_width < 1.0 - 1e-12:
        edges.append(edges[-1] + bin_width)
    edges.append(1.0)
    edges = np.asarray(edges)

    # right-closed last bin so confidence exactly 1.0 lands in it
    idx = np.clip(np.searchsorted(edges, maxp, side="right") - 1, 0, len(edges) - 2)
    counts = np.bincount(idx, minlength=len(edges) - 1)
    correct = np.bincount(idx[pred == gold], minlength=len(edges) - 1)
    frac = [float(c) / n if n else 0.0 for c, n in zip(correct, counts)]
    return ConfidenceHistogram(edges.tolist(), counts.tolist(), correct.tolist(), frac,
                               float(maxp.mean()))


def _pieces_per_seed(n_seeds, n_values, jobs) -> int:
    """How many pieces to cut each seed's values into for `jobs` processes.

    Each piece rebuilds its seed's data, suite and (for the sweep) identify
    stage, so there is one piece per seed while the seeds alone keep every
    process busy, and just enough pieces to do so otherwise.
    """
    return max(1, min(n_values, math.ceil(jobs / max(n_seeds, 1))))


def _fan_out_seeds(worker, values, fixed, seeds, jobs):
    """worker(piece, *fixed, seed) over every seed and piece of `values`, on up
    to `jobs` processes (in this process at jobs=1); returns each seed's
    per-value results, in seed order."""
    k = _pieces_per_seed(len(seeds), len(values), jobs)
    bounds = [i * len(values) // k for i in range(k + 1)]
    pieces = [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    job_list = [(piece, *fixed, s) for s in seeds for piece in pieces]
    if jobs > 1 and len(job_list) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(job_list))) as pool:
            parts = list(pool.map(worker, *zip(*job_list)))
    else:
        parts = [worker(*job) for job in job_list]
    return [[r for part in parts[i:i + k] for r in part] for i in range(0, len(parts), k)]


def _seed_summary(per_seed, splits) -> list:
    """Mean and spread over seeds at each point.

    per_seed[s][i] maps split -> accuracy for seed s at point i; returns one
    dict of {split}_mean / {split}_std per point.
    """
    if not per_seed:
        raise ConfigError("at least one seed is required")
    rows = []
    for i in range(len(per_seed[0])):
        row = {}
        for split in splits:
            vals = np.array([accs[i][split] for accs in per_seed])
            row[f"{split}_mean"] = float(vals.mean())
            row[f"{split}_std"] = float(vals.std())
        rows.append(row)
    return rows


def proportion_seed(m_values, synth_cfg: SynthConfig, train_cfg: TrainConfig, seed: int):
    """Baseline accuracy on every split at each m, for one seed.

    The clean training set and the eval suite do not depend on m, so they are
    generated once; only the bias injection and the training run per m.
    """
    if any(not 0.0 <= m <= 1.0 for m in m_values):
        raise ConfigError("m values must lie in [0, 1]")
    cfg = replace(synth_cfg, seed=seed)
    clean = gen_dataset(cfg)
    suite = make_eval_suite(cfg)
    run_cfg = replace(train_cfg, method="baseline_ce", seed=seed)
    # train every model before scoring any, so that the suite's matrices are
    # not held while a training set's matrix is
    models = [train_main(inject_bias(clean, m=m, rho=cfg.manipulated_fraction, seed=seed),
                         None, run_cfg)[0] for m in m_values]
    return [{split: accuracy(model, ds) for split, ds in suite.items()} for model in models]


def bias_proportion_study(m_values, synth_cfg: SynthConfig, train_cfg: TrainConfig, seeds,
                          jobs: int = 1) -> list:
    """Baseline training per (m, seed) on up to `jobs` processes; per m, the
    mean and spread over seeds of the final accuracy on every split."""
    per_seed = _fan_out_seeds(proportion_seed, m_values, (synth_cfg, train_cfg), seeds, jobs)
    summary = _seed_summary(per_seed, ("original", "biased", "anti_biased"))
    return [{"m": m, "seeds": len(seeds), **row} for m, row in zip(m_values, summary)]


def identify_stage(train, shallow_cfg: ShallowConfig, seed: int):
    """Shallow model -> bias weights -> main-training set; returns (weights, main_train).

    The main-training set is train minus the shallow subset, and it is the
    Dataset the shallow model scores: at an equal feature_dim, the main
    training reuses the matrix that the scoring built.
    """
    shallow_model, subset_ids = train_shallow(train, replace(shallow_cfg, seed=seed))
    main_train = train.without(subset_ids)
    return compute_bias_weights(shallow_model, main_train), main_train


def sweep_seed(a_values, method: str, synth_cfg: SynthConfig, train_cfg: TrainConfig,
               shallow_cfg: ShallowConfig, seed: int):
    """Debiased accuracy on the original and anti-biased splits at each
    annealing floor a, for one seed.

    Data, eval suite, identify stage and conf_reg teacher depend only on the
    seed (train_teacher drops the anneal schedule), so they are built once;
    only the main training runs per a.
    """
    run_cfg = replace(train_cfg, method=method, seed=seed)  # before any data is generated
    schedules = [AnnealSchedule(a=a, enabled=True) for a in a_values]
    cfg = replace(synth_cfg, seed=seed)
    train = inject_bias(gen_dataset(cfg), m=cfg.bias_proportion,
                        rho=cfg.manipulated_fraction, seed=seed)
    suite = make_eval_suite(cfg)
    weights, main_train = identify_stage(train, shallow_cfg, seed)
    teacher = train_teacher(main_train, run_cfg) if method == "conf_reg" else None
    # as in proportion_seed: train every model, then score them all
    models = [train_main(main_train, weights, replace(run_cfg, anneal=sched), teacher=teacher)[0]
              for sched in schedules]
    return [{split: accuracy(model, suite[split]) for split in ("original", "anti_biased")}
            for model in models]


def sweep_study(a_values, method: str, synth_cfg: SynthConfig, train_cfg: TrainConfig,
                shallow_cfg: ShallowConfig, seeds, jobs: int = 1) -> list:
    """The anneal sweep over the annealing floor a on up to `jobs` processes;
    per a, the mean and spread over seeds of the debiased accuracy on the
    original and anti-biased splits."""
    # baseline_ce, or an unknown method, is refused before the fan-out starts a pool
    if method == "baseline_ce":
        raise ConfigError("anneal sweep requires a debiasing method")
    train_cfg = replace(train_cfg, method=method)
    per_seed = _fan_out_seeds(sweep_seed, a_values, (method, synth_cfg, train_cfg, shallow_cfg),
                              seeds, jobs)
    summary = _seed_summary(per_seed, ("original", "anti_biased"))
    return [{"value": a, **row, "seeds": len(seeds)} for a, row in zip(a_values, summary)]


def stability_seed(runs, train, cfg: ShallowConfig, eval_ds, seed: int):
    """The stability rows of `runs` for one seed: run r trains seed + 1000 * r."""
    gold, easy = eval_ds.labels(), eval_ds.oracle_easy()
    rows = []
    for run in runs:
        run_cfg = replace(cfg, seed=seed + 1000 * run)
        model, subset_ids = train_shallow(train, run_cfg)
        diag = validate_shallow(model, train.without(subset_ids))
        row = {"run": run, "seed": run_cfg.seed, "degenerate": diag.degenerate,
               "unseen_acc": diag.unseen_accuracy}
        correct = model.predict(eval_ds) == gold
        for name, part in (("easy", easy), ("hard", ~easy)):
            row[f"{name}_acc"] = float(np.mean(correct[part])) if part.any() else math.nan
            row[f"{name}_n"] = int(part.sum())
        row["overall_acc"] = float(np.mean(correct))
        rows.append(row)
    return rows


def stability_study(train, cfg: ShallowConfig, n_runs: int, eval_ds, jobs: int = 1) -> list:
    """Fresh-seed shallow runs on up to `jobs` processes, scored on the
    bias-oracle easy/hard partition of eval_ds. Returns one row per run."""
    if n_runs < 2:
        raise ConfigError("stability study needs n_runs >= 2")
    check_model_data(eval_ds, train.num_labels, train.vocab_size)  # before any run trains
    return _fan_out_seeds(stability_seed, range(n_runs), (train, cfg, eval_ds), [cfg.seed], jobs)[0]
