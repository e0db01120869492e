"""End-to-end acceptance checks for the full lab.

Each test covers one numbered claim about the system and prints a single
ACCEPTANCE line with its verdict. These run real training loops on the
default-scale task, so the module takes a few minutes.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

import conftest

from debias_forge.classifier import (
    Featurizer, grad_check, init_params, load_checkpoint, save_checkpoint,
)
from debias_forge.cli import main as cli_main
from debias_forge.evaluation import (
    bias_proportion_study, debias_study, identify_stage, stability_study,
)
from debias_forge.objectives import (
    AnnealSchedule, anneal_alpha, anneal_probs, loss_confreg, loss_poe,
    loss_reweight, scale_teacher,
)
from debias_forge.rng import substream
from debias_forge.shallow import (
    ShallowConfig, grid_search_shallow, oracle_band_thresholds,
)
from debias_forge.synthgen import (
    SynthConfig, gen_dataset, inject_bias, make_eval_suite,
)
from debias_forge.trainer import TrainConfig, train_main


# Shallow settings used as the bias detector in the training-time checks:
# a deliberately brief run whose confidence tracks how strongly an example
# leans on the shortcut, rather than memorized noise.
DETECTOR = ShallowConfig(sample_size=2000, epochs=2, learning_rate=5e-3,
                         adam_beta2=0.9)


def announce(num, desc, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {desc}: {verdict}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _biased_set(rho, m, seed):
    cfg = replace(SynthConfig(), manipulated_fraction=rho, bias_proportion=m,
                  seed=seed)
    train = inject_bias(gen_dataset(cfg), m=m, rho=rho, seed=seed)
    return train, make_eval_suite(cfg)


@pytest.fixture(scope="module")
def full_train():
    """Default-scale biased training set: rho=0.3, m=0.9, seed=0."""
    train, suite = _biased_set(rho=0.3, m=0.9, seed=0)
    return train, suite


# -- 1: gradient correctness ------------------------------------------------

def test_c01_gradient_check():
    rng = np.random.default_rng(7)
    V, D, H, K = 20, 48, 8, 3
    feat = Featurizer(V, D)
    cfg = SynthConfig(num_labels=K, train_size=6, test_size=4, vocab_size=V,
                      tokens_per_segment=3)
    worst = 0.0
    for trial in range(20):
        ds = gen_dataset(replace(cfg, seed=trial))
        X = feat.matrix(ds.examples)
        n = len(ds)
        if trial % 2 == 0:
            targets = np.eye(K)[ds.labels()]
        else:
            targets = rng.dirichlet(np.ones(K), size=n)  # soft targets
        weights = rng.uniform(0.1, 2.0, size=n)
        offset = rng.normal(size=(n, K)) if trial % 3 == 0 else None
        params = init_params(D, H, K, substream(trial, "accept-grad"))
        err = grad_check(params, X, targets, weights, eps=1e-5, rng=rng,
                         logit_offset=offset)
        worst = max(worst, err)
    announce(1, "gradient check under hard and soft targets", worst < 1e-4,
             f"worst rel err {worst:.2e}")


# -- 2: objective neutral points --------------------------------------------

def test_c02_objective_neutral_points():
    p_d = np.array([0.5, 0.3, 0.2])
    uniform = np.full(3, 1 / 3)
    ok = all(abs(loss_poe(p_d, uniform, y) + math.log(p_d[y])) < 1e-9
             for y in range(3))
    ok = ok and loss_reweight(p_d, 1, 0.0) == -math.log(p_d[1])
    ok = ok and loss_reweight(p_d, 1, 1.0) == 0.0
    p_t = np.array([0.7, 0.2, 0.1])
    raw = float(-(p_t * np.log(p_d)).sum())
    ok = ok and abs(loss_confreg(p_d, p_t, 0.0) - raw) < 1e-12
    announce(2, "objectives collapse to plain losses at their neutral points", ok)


# -- 3: annealing algebra ----------------------------------------------------

def test_c03_annealing_algebra():
    sched = AnnealSchedule(a=0.4, enabled=True)
    vals = [anneal_alpha(t, sched, 100) for t in range(0, 101, 10)]
    diffs = np.diff(vals)
    ok = vals[0] == 1.0 and abs(vals[-1] - 0.4) < 1e-15
    ok = ok and np.allclose(diffs, diffs[0], atol=1e-12)

    rng = np.random.default_rng(11)
    for K in (2, 3, 5):
        for _ in range(100):
            p = rng.dirichlet(np.ones(K))
            ok = ok and np.array_equal(anneal_probs(p, 1.0), p)
            ok = ok and np.max(np.abs(anneal_probs(p, 0.0) - 1 / K)) < 1e-9
            prev_h = None
            for alpha in (1.0, 0.7, 0.4, 0.1):
                q = anneal_probs(p, alpha)
                for i in range(K):
                    for j in range(K):
                        if p[i] < p[j]:
                            ok = ok and q[i] <= q[j] + 1e-12
                h = float(-(np.maximum(q, 1e-300) * np.log(np.maximum(q, 1e-300))).sum())
                if prev_h is not None:
                    ok = ok and h >= prev_h - 1e-10
                prev_h = h
    announce(3, "annealing is affine in t, order-preserving, entropy-monotone", ok)


# -- 4: hand arithmetic ------------------------------------------------------

def test_c04_hand_arithmetic():
    poe = loss_poe(np.array([0.5, 0.3, 0.2]), np.array([0.8, 0.1, 0.1]), 0)
    teach = scale_teacher(np.array([0.7, 0.2, 0.1]), 0.5)
    creg = loss_confreg(np.array([0.6, 0.3, 0.1]), np.array([0.7, 0.2, 0.1]), 0.5)
    ok = abs(poe - 0.1178) < 1e-3
    ok = ok and np.allclose(teach, [0.5228, 0.2794, 0.1976], atol=1e-3)
    ok = ok and abs(creg - 1.0585) < 1e-3
    announce(4, "worked numeric examples reproduce to 1e-3", ok,
             f"poe {poe:.4f}, conf_reg {creg:.4f}")


# -- 5: baseline learns the shortcut early -----------------------------------

def test_c05_baseline_shortcut_adoption():
    t0 = time.monotonic()
    hit_all = True
    details = []
    for seed in (1, 2, 3):
        train, suite = _biased_set(rho=0.3, m=0.9, seed=seed)
        cfg = TrainConfig(epochs=4, eval_every=25, seed=seed)
        _, log = train_main(train, None, cfg, eval_suite=suite)
        total = log[-1]["step"]
        quarter = [r for r in log if "acc_biased" in r and r["step"] <= total / 4]
        hits = [r for r in quarter
                if r["acc_biased"] >= 0.95 and r["acc_anti_biased"] <= 0.15]
        hit_all = hit_all and bool(hits)
        if hits:
            details.append(f"seed {seed}: step {hits[0]['step']}/{total}")
    elapsed = time.monotonic() - t0
    announce(5, "baseline hits biased>=0.95 with anti<=0.15 in first quarter",
             hit_all and elapsed < 300,
             "; ".join(details) + f"; {elapsed:.0f}s")


# -- 6: stronger bias hurts the misaligned split ------------------------------

def test_c06_bias_proportion_monotone():
    t0 = time.monotonic()
    ms = [0.6, 0.7, 0.8, 0.9]
    rows = bias_proportion_study(ms, SynthConfig(), TrainConfig(epochs=4),
                                 seeds=[1, 2, 3], jobs=min(2, os.cpu_count() or 1))
    anti = [r["anti_biased_mean"] for r in rows]
    orig = [r["original_mean"] for r in rows]
    mono = all(anti[i + 1] <= anti[i] + 0.02 for i in range(len(anti) - 1))
    stable = max(orig) - min(orig) <= 0.03
    elapsed = time.monotonic() - t0
    announce(6, "anti-biased accuracy falls as bias strength rises",
             mono and stable and elapsed < 3600,
             f"anti {['%.3f' % a for a in anti]}, orig range "
             f"{max(orig) - min(orig):.3f}, {elapsed:.0f}s")


# -- 7: shallow selection grid -----------------------------------------------

def test_c07_shallow_grid_selection(full_train):
    train, _ = full_train
    thresholds = oracle_band_thresholds(train, width=0.10)
    best, rows, _ = grid_search_shallow(train, [500, 1000, 2000], [20, 50, 100],
                                        thresholds=thresholds)
    found = best is not None
    in_band = False
    if found:
        row = next(r for r in rows
                   if r["n_s"] == best.sample_size and r["e_s"] == best.epochs)
        lo, hi = thresholds.acc_band
        in_band = lo <= row["unseen_acc"] <= hi and row["high_conf_frac"] >= 0.9
    # confidence should grow with training length at fixed sample size
    by_epochs = sorted((r["e_s"], r["high_conf_frac"])
                       for r in rows if r["n_s"] == 2000)
    growing = all(b[1] >= a[1] for a, b in zip(by_epochs, by_epochs[1:]))
    announce(7, "grid finds an in-band overconfident shallow model",
             found and in_band and growing,
             (f"best n={best.sample_size} e={best.epochs}, " if found else "") +
             f"conf by epochs {by_epochs}")


# -- 8: every debiasing method recovers the misaligned split ------------------

def test_c08_methods_beat_baseline():
    seeds = (1, 2, 3, 4, 5)
    methods = ("reweight", "poe", "conf_reg")
    data = replace(SynthConfig(), manipulated_fraction=0.5)
    jobs = min(2, os.cpu_count() or 1)
    # the baseline trains on the whole biased set, each method on the
    # identify stage's main-training set
    (base,) = bias_proportion_study([0.9], data, TrainConfig(epochs=4), seeds, jobs)
    rows = debias_study([TrainConfig(method=m, epochs=5) for m in methods], data, DETECTOR,
                        seeds, jobs)
    b_anti, b_orig = base["anti_biased_mean"], base["original_mean"]
    ok = True
    parts = [f"baseline anti {b_anti:.3f}"]
    # margins below are desk-scale substitutes calibrated on pilot runs;
    # the binding claims are the orderings
    for method, row in zip(methods, rows):
        gain = row["anti_biased_mean"] - b_anti
        drop = b_orig - row["original_mean"]
        limit = 0.02 if method == "conf_reg" else 0.05
        ok = ok and gain >= 0.10 and drop <= limit
        parts.append(f"{method} gain {gain:+.3f} drop {drop:+.3f}")
    announce(8, "each method lifts anti-biased accuracy without losing original",
             ok, "; ".join(parts))


# -- 9: annealing interpolates between debiased and baseline ------------------

def test_c09_anneal_interpolation():
    a_values = (1.0, 0.8, 0.6, 0.4, 0.2, 0.0)
    # poe at each a, then the baseline, on one identify stage per seed
    runs = [TrainConfig(method="poe", epochs=2, anneal=AnnealSchedule(a=a, enabled=True))
            for a in a_values]
    *rows, base = debias_study(runs + [TrainConfig(epochs=2)],
                               replace(SynthConfig(), manipulated_fraction=0.5), DETECTOR,
                               (1, 2, 3), jobs=min(2, os.cpu_count() or 1))
    means = [r["anti_biased_mean"] for r in rows]
    rho, _ = spearmanr(a_values, means)
    gap = abs(means[-1] - base["anti_biased_mean"])
    announce(9, "anti-biased accuracy tracks the annealing floor",
             rho >= 0.7 and gap <= 0.05,
             f"spearman {rho:.2f}, a=0 vs baseline gap {gap:.3f}, "
             f"means {['%.3f' % m for m in means]}")


# -- 10: reweighting compresses the loss spread -------------------------------

def test_c10_loss_spread_compression():
    ok = True
    details = []
    for seed in (1, 2):
        train, _ = _biased_set(rho=0.3, m=0.9, seed=seed)
        weights, main_train = identify_stage(train, DETECTOR, seed)
        spreads = {}
        for method in ("baseline_ce", "reweight"):
            cfg = TrainConfig(method=method, epochs=4, seed=seed)
            _, log = train_main(main_train, weights, cfg)
            spreads[method] = float(np.mean([r["p50"] - r["p25"] for r in log]))
        ok = ok and spreads["baseline_ce"] >= spreads["reweight"]
        details.append(f"seed {seed}: base {spreads['baseline_ce']:.3f} vs "
                       f"rw {spreads['reweight']:.3f}")
    announce(10, "baseline interquartile loss spread exceeds reweighted",
             ok, "; ".join(details))


# -- 11: shallow models are stably shortcut-driven ----------------------------

def test_c11_shallow_stability(full_train):
    train, _ = full_train
    eval_cfg = replace(SynthConfig(), train_size=2000, seed=77)
    mixed = inject_bias(gen_dataset(eval_cfg), m=0.9, rho=0.3, seed=77)
    rows = stability_study(train, ShallowConfig(), 10, mixed, jobs=min(2, os.cpu_count() or 1))
    usable = [r for r in rows if not r["degenerate"]]
    ok = bool(usable) and all(r["easy_acc"] > r["hard_acc"] for r in usable)
    announce(11, "every non-degenerate shallow run scores easy above hard",
             ok, f"{len(usable)}/10 non-degenerate, easy "
             f"{min(r['easy_acc'] for r in usable):.2f}-"
             f"{max(r['easy_acc'] for r in usable):.2f} vs hard "
             f"{min(r['hard_acc'] for r in usable):.2f}-"
             f"{max(r['hard_acc'] for r in usable):.2f}" if usable else "all degenerate")


# -- 12: reproducibility ------------------------------------------------------

def test_c12_reproducibility(tmp_path):
    conf = tmp_path / "t.conf"
    conf.write_text(
        "data.train_size = 600\ndata.test_size = 120\ndata.vocab_size = 60\n"
        "data.tokens_per_segment = 4\ntrain.epochs = 1\ntrain.eval_every = 5\n"
        "train.feature_dim = 130\ntrain.hidden = 8\n")
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["generate", "--config", str(conf), "--out-dir", str(out),
                         "--seed", "9", "--quiet"]) == 0
        assert cli_main(["train", "--config", str(conf),
                         "--data", str(out / "train.jsonl"),
                         "--eval-dir", str(out), "--out-dir", str(out),
                         "--seed", "9", "--quiet"]) == 0
        outs.append(out)
    same = True
    for path in sorted(outs[0].iterdir()):
        twin = outs[1] / path.name
        if path.name.endswith(".manifest.json"):
            a = json.loads(path.read_text())
            b = json.loads(twin.read_text())
            for d in (a, b):
                d.pop("started_at"), d.pop("finished_at")
                d["inputs"] = [os.path.basename(p) for p in d["inputs"]]
                d["outputs"] = [os.path.basename(p) for p in d["outputs"]]
            same = same and a == b
        else:
            same = same and path.read_bytes() == twin.read_bytes()

    ckpt = next(outs[0].glob("model-*.ckpt.json"))
    model = load_checkpoint(ckpt)
    back = tmp_path / "back.ckpt.json"
    save_checkpoint(model, back)
    reloaded = load_checkpoint(back)
    drift = max(np.max(np.abs(a - reloaded.params.arrays()[n]))
                for n, a in model.params.arrays().items())
    announce(12, "reruns are byte-identical and checkpoints round-trip",
             same and drift <= 1e-12, f"param drift {drift:.1e}")
