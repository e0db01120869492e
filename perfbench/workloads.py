"""The three benchmark workloads: set-up, one timed pass, and its outputs.

Each workload object is built (set-up, untimed by the pass), then `run()` is
the timed pass. After it, `artifacts()` lists the files whose bytes must be
reproducible and `accuracies()` scores the models the pass trained on the
`anti_biased` and `original` splits.

Every call into the library goes through a module attribute
(`shallow.grid_search_shallow`, not a name imported here), so that the
tracer's wrappers see the calls.
"""

import csv
import glob
import json
import os

import numpy as np

from debias_forge import classifier, cli, evaluation, shallow, synthgen, trainer

# Sizes of each scale. "default" is the lab at its documented scale; "tiny"
# matches the TINY config of the test suite and only serves the self-test.
SCALES = {
    "default": {
        "data": {},
        "shallow": {"sample_size": 2000, "epochs": 20},
        # one epoch, not the default three, so that a cli_pipeline pass takes
        # about 20 s and two passes fit in one run
        "train_epochs": 1,
        "grid_sizes": [500, 1000],
        "grid_epochs": [20, 50],
        "study_m": [0.6, 0.9],
        "study_epochs": 1,
    },
    "tiny": {
        "data": {"train_size": 800, "test_size": 200, "vocab_size": 60,
                 "tokens_per_segment": 4},
        "shallow": {"sample_size": 200, "epochs": 3},
        "train_epochs": 1,
        "grid_sizes": [100, 200],
        "grid_epochs": [2, 3],
        "study_m": [0.6, 0.9],
        "study_epochs": 1,
    },
}

DEBIAS_METHODS = ("reweight", "poe", "conf_reg")


class Outcome:
    """Operations attempted in a pass, those that failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message, count=1):
        self.failed += count
        self.errors.append(message)

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # a failed library call is a counted failure
            self.fail(f"{label}: {type(e).__name__}: {e}")
            return None


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, sort_keys=True)
        fh.write("\n")


def _mean_split_accuracy(models, suite):
    """Mean accuracy of `models` on the original and anti_biased splits,
    featurizing each split once (all models share one featurizer)."""
    out = {}
    for split in ("anti_biased", "original"):
        ds = suite[split]
        X = models[0].featurizer.matrix(ds.examples)
        y = ds.labels()
        out[split] = float(np.mean([
            np.mean(np.argmax(classifier.forward(m.params, X), axis=1) == y)
            for m in models]))
    return out["anti_biased"], out["original"]


class CliPipeline:
    """generate -> shallow (one cell) -> identify -> train x4 -> report
    compare, all through `cli.main` in this process."""

    def __init__(self, seed, scale, out_dir):
        sc = SCALES[scale]
        self.seed = seed
        self.out = out_dir
        self.sets = [f"data.{k}={v}" for k, v in sc["data"].items()]
        self.sets += [f"shallow.{k}={v}" for k, v in sc["shallow"].items()]
        self.sets.append(f"train.epochs={sc['train_epochs']}")
        self.models = {}

    def _path(self, *parts):
        return os.path.join(self.out, *parts)

    def _cli(self, outcome, command, *argv, sets=()):
        args = [command, *argv, "--seed", str(self.seed), "--quiet"]
        for s in [*self.sets, *sets]:
            args += ["--set", s]
        code = outcome.call(f"cli {command}", cli.main, args)
        if code not in (0, None):
            outcome.fail(f"cli {command}: exit code {code}")
        return code == 0

    def _one(self, pattern):
        found = sorted(glob.glob(self._path(pattern)))
        if len(found) != 1:
            raise FileNotFoundError(f"expected one file matching {pattern}, found {found}")
        return found[0]

    def run(self):
        o = Outcome()
        data = self._path("data")
        train_path = os.path.join(data, "train.jsonl")
        steps = [
            lambda: self._cli(o, "generate", "--out-dir", data),
            lambda: self._cli(o, "shallow", "--data", train_path,
                              "--out-dir", self._path("shallow")),
            lambda: self._cli(o, "identify", "--data", train_path, "--out-dir",
                              self._path("weights"), "--checkpoint",
                              self._one("shallow/shallow-*.ckpt.json")),
        ]
        for method in ("baseline_ce", *DEBIAS_METHODS):
            steps.append(lambda method=method: self._train(o, method, train_path, data))
        steps.append(lambda: self._cli(
            o, "report", "--kind", "compare", "--suite-dir", data,
            "--out-dir", self._path("report"),
            "--checkpoints", *self.models.values()))
        for i, step in enumerate(steps):
            try:
                ok = step()
            except FileNotFoundError as e:
                o.attempted += 1
                o.fail(str(e))
                ok = False
            if not ok:
                # the later steps need this step's outputs: count them failed
                left = len(steps) - i - 1
                o.attempted += left
                o.fail(f"{left} later pipeline steps not run", count=left)
                break
        return o

    def _train(self, o, method, train_path, data):
        before = set(glob.glob(self._path("train", "model-*.ckpt.json")))
        ok = self._cli(o, "train", "--data", train_path, "--eval-dir", data,
                       "--out-dir", self._path("train"),
                       "--weights", self._one("weights/weights-*.jsonl"),
                       sets=[f"train.method={method}"])
        if ok:
            new = set(glob.glob(self._path("train", "model-*.ckpt.json"))) - before
            if len(new) != 1:
                raise FileNotFoundError(f"train {method}: expected one new model, found {new}")
            self.models[method] = new.pop()
        return ok

    def artifacts(self):
        """Every output but the manifests, which carry timestamps and paths."""
        found = {}
        for root, _dirs, files in os.walk(self.out):
            for name in files:
                if not name.endswith(".manifest.json"):
                    path = os.path.join(root, name)
                    found[os.path.relpath(path, self.out)] = path
        return found

    def accuracies(self):
        path = self._one("report/compare-*.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["method"] in DEBIAS_METHODS]
        if len(rows) != len(DEBIAS_METHODS):
            raise ValueError(f"{path}: expected rows for {DEBIAS_METHODS}")
        return (float(np.mean([float(r["anti_biased"]) for r in rows])),
                float(np.mean([float(r["original"]) for r in rows])))


class ShallowGrid:
    """grid_search_shallow over a pre-built biased training set."""

    def __init__(self, seed, scale, out_dir):
        sc = SCALES[scale]
        self.out = out_dir
        self.synth = synthgen.SynthConfig(seed=seed, **sc["data"])
        self.train = synthgen.inject_bias(
            synthgen.gen_dataset(self.synth), m=self.synth.bias_proportion,
            rho=self.synth.manipulated_fraction, seed=seed)
        self.thresholds = shallow.oracle_band_thresholds(self.train)
        self.base = shallow.ShallowConfig(seed=seed)
        self.sizes, self.epochs = sc["grid_sizes"], sc["grid_epochs"]
        self.rows = None
        self.models = []

    def run(self):
        # keep the model of every grid cell, to score it after the pass
        train_shallow = shallow.train_shallow

        def keep_model(*args, **kwargs):
            model, subset_ids = train_shallow(*args, **kwargs)
            self.models.append(model)
            return model, subset_ids

        o = Outcome()
        shallow.train_shallow = keep_model
        try:
            result = o.call("grid_search_shallow", shallow.grid_search_shallow, self.train,
                            self.sizes, self.epochs, base_cfg=self.base,
                            thresholds=self.thresholds)
        finally:
            shallow.train_shallow = train_shallow
        if result is not None:
            self.rows = result[1]
        return o

    def artifacts(self):
        path = os.path.join(self.out, "grid_rows.json")
        _write_rows(path, self.rows)
        return {"grid_rows.json": path}

    def accuracies(self):
        return _mean_split_accuracy(self.models, synthgen.make_eval_suite(self.synth))


class BiasStudy:
    """bias_proportion_study: baseline training per (m, study seed)."""

    def __init__(self, seed, scale, out_dir):
        sc = SCALES[scale]
        self.out = out_dir
        self.synth = synthgen.SynthConfig(**sc["data"])
        self.train_cfg = trainer.TrainConfig(epochs=sc["study_epochs"])
        self.m_values = sc["study_m"]
        # the default seed 0 gives the study seeds {1, 2}
        self.seeds = [2 * seed + 1, 2 * seed + 2]
        self.rows = None

    def run(self):
        o = Outcome()
        self.rows = o.call("bias_proportion_study", evaluation.bias_proportion_study,
                           self.m_values, self.synth, self.train_cfg, self.seeds)
        return o

    def artifacts(self):
        path = os.path.join(self.out, "study_rows.json")
        _write_rows(path, self.rows)
        return {"study_rows.json": path}

    def accuracies(self):
        return (float(np.mean([r["anti_biased_mean"] for r in self.rows])),
                float(np.mean([r["original_mean"] for r in self.rows])))


WORKLOADS = {
    "cli_pipeline": CliPipeline,
    "shallow_grid": ShallowGrid,
    "bias_study": BiasStudy,
}
