"""Span tracing of the library's public functions, from outside the library.

`Tracer.install()` wraps each public function of `debias_forge` in every
module namespace that bound it by name (e.g. `shallow.opt_step` and
`trainer.opt_step` are both bindings of `classifier.opt_step`), plus the
dispatch table of the CLI, and two methods on their classes. Spans are kept
in memory as [name, start, end, parent] and written out after the pass.

A wrapper records only references and cheap lengths; anything costlier
(distinct featurized rows, file sizes) is computed in `layer_metrics()`
after the timed region, so it does not land in any span's self time.
"""

import functools
import json
import os
import sys
import time

# (span name, module, attribute) of each traced public function
FUNCTIONS = [
    ("synthgen.gen_dataset", "synthgen", "gen_dataset"),
    ("synthgen.make_eval_suite", "synthgen", "make_eval_suite"),
    ("synthgen.inject_bias", "synthgen", "inject_bias"),
    ("synthgen.save_dataset", "synthgen", "save_dataset"),
    ("synthgen.load_dataset", "synthgen", "load_dataset"),
    ("classifier.forward", "classifier", "forward"),
    ("classifier.loss_and_grad", "classifier", "loss_and_grad"),
    ("classifier.opt_step", "classifier", "opt_step"),
    ("classifier.save_checkpoint", "classifier", "save_checkpoint"),
    ("classifier.load_checkpoint", "classifier", "load_checkpoint"),
    ("objectives.build_targets", "objectives", "build_targets"),
    ("shallow.train_shallow", "shallow", "train_shallow"),
    ("shallow.compute_bias_weights", "shallow", "compute_bias_weights"),
    ("shallow.validate_shallow", "shallow", "validate_shallow"),
    ("shallow.grid_search_shallow", "shallow", "grid_search_shallow"),
    ("shallow.save_bias_weights", "shallow", "save_bias_weights"),
    ("shallow.load_bias_weights", "shallow", "load_bias_weights"),
    ("trainer.train_main", "trainer", "train_main"),
    ("trainer.train_teacher", "trainer", "train_teacher"),
    ("trainer.write_metrics", "trainer", "write_metrics"),
    ("evaluation.accuracy", "evaluation", "accuracy"),
    ("evaluation.bias_proportion_study", "evaluation", "bias_proportion_study"),
    ("cli.generate", "cli", "cmd_generate"),
    ("cli.shallow", "cli", "cmd_shallow"),
    ("cli.identify", "cli", "cmd_identify"),
    ("cli.train", "cli", "cmd_train"),
    ("cli.report", "cli", "cmd_report"),
]

# (span name, module, class, method) of each traced method
METHODS = [
    ("classifier.featurize", "classifier", "Featurizer", "matrix"),
    ("classifier.predict_proba", "classifier", "Model", "predict_proba"),
]

PACKAGE = "debias_forge"
NAME, START, END, PARENT = range(4)

SELF_TIME_LAYERS = [
    "synthgen.gen_dataset", "synthgen.make_eval_suite", "synthgen.inject_bias",
    "synthgen.save_dataset", "synthgen.load_dataset",
    "classifier.featurize", "classifier.forward", "classifier.loss_and_grad",
    "classifier.opt_step", "classifier.save_checkpoint", "classifier.load_checkpoint",
    "objectives.build_targets",
    "shallow.train_shallow", "shallow.compute_bias_weights", "shallow.validate_shallow",
    "shallow.save_bias_weights", "shallow.load_bias_weights",
    "trainer.train_main", "trainer.write_metrics",
    "evaluation.accuracy",
]
CLI_COMMANDS = ["generate", "shallow", "identify", "train", "report"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.featurized = []      # example lists passed to Featurizer.matrix
        self.forward_rows = 0
        self.checkpoint_files = []  # written by save_checkpoint
        self.dataset_files = []     # written by save_dataset or read by load_dataset
        self.examples = 0         # examples made by gen_dataset / make_eval_suite
        self.grid_cells = 0
        self.steps = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, note=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def _notes(self):
        def gen(args, kwargs, res):
            self.examples += len(res)

        def suite(args, kwargs, res):
            self.examples += sum(len(ds) for ds in res.values())

        def featurize(args, kwargs, res):
            self.featurized.append(args[1])

        def forward(args, kwargs, res):
            self.forward_rows += res.shape[0]

        def saved_checkpoint(args, kwargs, res):
            self.checkpoint_files.append(args[1])

        def saved_dataset(args, kwargs, res):
            self.dataset_files.append(args[1])

        def loaded_dataset(args, kwargs, res):
            self.dataset_files.append(args[0])

        def grid(args, kwargs, res):
            self.grid_cells += len(res[1])

        def train_main(args, kwargs, res):
            self.steps += len(res[1])

        return {
            "synthgen.gen_dataset": gen,
            "synthgen.make_eval_suite": suite,
            "synthgen.save_dataset": saved_dataset,
            "synthgen.load_dataset": loaded_dataset,
            "classifier.featurize": featurize,
            "classifier.forward": forward,
            "classifier.save_checkpoint": saved_checkpoint,
            "shallow.grid_search_shallow": grid,
            "trainer.train_main": train_main,
        }

    def install(self):
        """Wrap every traced function and method; the package must be imported."""
        notes = self._notes()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrapped = {}  # id(original) -> wrapper; the originals stay alive in FUNCTIONS' modules
        for name, mod, attr in FUNCTIONS:
            fn = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
            wrapped[id(fn)] = self._wrap(name, fn, notes.get(name))
        for module in modules:
            space = vars(module)
            for key, value in list(space.items()):
                if id(value) in wrapped:
                    space[key] = wrapped[id(value)]
                elif isinstance(value, dict):  # e.g. the CLI's command table
                    for k, v in list(value.items()):
                        if id(v) in wrapped:
                            value[k] = wrapped[id(v)]
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod}"], cls_name)
            setattr(cls, attr, self._wrap(name, getattr(cls, attr), notes.get(name)))

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Per span name: (total duration, self time, calls)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = {}
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            tot, slf, calls = out.get(rec[NAME], (0.0, 0.0, 0))
            out[rec[NAME]] = (tot + dur, slf + dur - child[i], calls + 1)
        return out

    def step_ms(self):
        """Duration of each optimizer step: loss_and_grad plus the opt_step
        that follows it under the same parent span."""
        out = []
        last_grad = {}
        for rec in self.spans:
            if rec[NAME] == "classifier.loss_and_grad":
                last_grad[rec[PARENT]] = rec[END] - rec[START]
            elif rec[NAME] == "classifier.opt_step" and rec[PARENT] in last_grad:
                out.append(1000.0 * (last_grad.pop(rec[PARENT]) + rec[END] - rec[START]))
        return out

    def layer_metrics(self):
        """Per-layer metrics of the traced region (the files must still exist)."""
        times = self.self_times()
        m = {}
        for layer in SELF_TIME_LAYERS:
            m[f"{layer}.self_s"] = times.get(layer, (0.0, 0.0, 0))[1]
        for layer in ("classifier.loss_and_grad", "classifier.opt_step",
                      "objectives.build_targets"):
            m[f"{layer}.calls"] = times.get(layer, (0.0, 0.0, 0))[2]
        for cmd in CLI_COMMANDS:
            tot, slf, _ = times.get(f"cli.{cmd}", (0.0, 0.0, 0))
            m[f"cli.{cmd}.s"], m[f"cli.{cmd}.self_s"] = tot, slf
        m["trainer.train_teacher.calls"] = times.get("trainer.train_teacher", (0, 0, 0))[2]

        rows = [(ex.segment_a, ex.segment_b) for exs in self.featurized for ex in exs]
        m["classifier.featurize.rows"] = len(rows)
        m["classifier.featurize.unique_ratio"] = len(set(rows)) / len(rows) if rows else 0.0
        m["classifier.forward.rows"] = self.forward_rows
        steps = sorted(self.step_ms())
        m["classifier.step_ms.p50"] = _nearest_rank(steps, 50)
        m["classifier.step_ms.p99"] = _nearest_rank(steps, 99)
        m["classifier.checkpoint_bytes"] = sum(map(os.path.getsize, self.checkpoint_files))
        m["synthgen.io_bytes"] = sum(map(os.path.getsize, self.dataset_files))
        m["synthgen.examples"] = self.examples
        m["shallow.grid_cells"] = self.grid_cells
        m["trainer.steps"] = self.steps
        return m

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _nearest_rank(sorted_values, pct):
    if not sorted_values:
        return 0.0
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[int(rank) - 1]

