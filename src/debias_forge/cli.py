"""Command-line orchestration: generate -> shallow -> identify -> train ->
report, driven by a line-oriented key = value config file with dotted
sections. One schema: each section is a config dataclass (SECTIONS) whose
fields are its keys, and a key's default, parsing and type check all come from
its field; each dataclass checks its values when built. Each command runs in
one `Run`, which resolves the config and its digest once and makes the out
dir at the first output, so a command that refuses its input makes none. Its
manifest lists the inputs read and the files written, also when the command
failed after writing some. Every command is byte-deterministic given the same
inputs and seed (manifest timestamps excepted).

Exit codes: 0 success, 2 config error, 3 data/schema error, 4 numeric
failure, 5 degenerate shallow model.
"""

import argparse
import csv
import difflib
import json
import logging
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from types import UnionType
from typing import Literal, Union, get_args, get_origin

import numpy as np

from . import __version__
from .classifier import check_model_data, load_checkpoint, save_checkpoint
from .errors import (
    ConfigError, DataError, DegenerateShallowError, NumericError, SchemaError, config_digest,
    open_text,
)
from .evaluation import (
    accuracy, bias_proportion_study, confidence_histogram, stability_study, sweep_study,
)
from .objectives import AnnealSchedule
from .shallow import (
    MAX_UNSEEN, ShallowConfig, ShallowSelection, compute_bias_weights, grid_search_shallow,
    load_bias_weights, save_bias_weights, train_shallow, validate_shallow,
)
from .synthgen import SynthConfig, gen_dataset, inject_bias, load_dataset, make_eval_suite, save_dataset
from .trainer import TrainConfig, read_metrics, train_main, train_teacher, write_metrics

logger = logging.getLogger("debias_forge")


@dataclass(frozen=True)
class ReportConfig:
    """The report.* keys; each is checked by the library call that takes it."""
    method: str = "poe"
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    m_values: list[float] = field(default_factory=lambda: [0.6, 0.7, 0.8, 0.9])
    a_values: list[float] = field(default_factory=lambda: [1.0, 0.8, 0.6, 0.4, 0.2, 0.0])
    n_runs: int = 10
    bin_width: float = 0.05


# the config section of each config dataclass, whose fields are its keys; a
# field whose type is another section's dataclass is built from that section
SECTIONS = {SynthConfig: "data", ShallowConfig: "shallow", ShallowSelection: "shallow",
            TrainConfig: "train", AnnealSchedule: "anneal", ReportConfig: "report"}


# every accepted config key, section.name, with its field and its built-in default
FIELDS = {f"{section}.{f.name}": f for cls, section in SECTIONS.items()
          for f in fields(cls) if f.type not in SECTIONS}
DEFAULTS = {key: f.default_factory() if f.default is MISSING else f.default
            for key, f in FIELDS.items()}


# ---------------------------------------------------------------------------
# config file handling

def _as_list(value):
    return value if isinstance(value, list) else [value]


def _parse_value(key: str, text: str):
    """JSON scalars and comma lists, except that the value of a str field is
    kept as given (a weights path of 12345 names a file, not a number)."""
    if key in FIELDS and FIELDS[key].type is str:
        return text
    parts = [p.strip() for p in text.split(",")]
    vals = []
    for p in parts:
        try:
            vals.append(json.loads(p))
        except json.JSONDecodeError:
            vals.append(p)
        except (ValueError, RecursionError) as e:  # too many digits, too deep
            raise ConfigError(f"config key {key!r}: cannot parse a value of "
                              f"{len(p)} characters: {e}") from e
    return vals if len(vals) > 1 else vals[0]


def parse_config_file(path) -> dict:
    """Line-oriented `key = value` pairs; '#' starts a comment."""
    out = {}
    with open_text(path, ConfigError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = _parse_value(key, value)
    return out


def _is_type_of(value, tp) -> bool:
    """list[T] takes one T or a list of them, a fixed-length tuple a list of its
    length, float a finite int or float; bool, int and str their own type."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is list:
        return all(_is_type_of(v, args[0]) for v in _as_list(value))
    if origin is tuple:
        return (type(value) is list and len(value) == len(args)
                and all(map(_is_type_of, value, args)))
    if origin is Literal:
        return any(type(value) is type(a) and value == a for a in args)
    if origin in (Union, UnionType):
        return any(_is_type_of(value, t) for t in args)
    if tp is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is tp


def _check(key: str, value):
    """ConfigError unless key is a config key and value has its field's type."""
    if key not in FIELDS:
        hint = difflib.get_close_matches(key, DEFAULTS, n=1)
        suffix = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(f"unknown config key {key!r}{suffix} "
                          f"(allowed: {', '.join(sorted(DEFAULTS))})")
    tp = FIELDS[key].type
    if not _is_type_of(value, tp):
        kind = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
        many = " (one value or a comma-separated list)" if get_origin(tp) is list else ""
        raise ConfigError(f"config key {key!r} takes {kind}{many}, got {value!r}")


def resolve_config(config_path=None, overrides=None, seed=None) -> dict:
    """Defaults, then file, then --set overrides, then --seed / env seed."""
    cfg, explicit = dict(DEFAULTS), set()
    from_file = parse_config_file(config_path).items() if config_path else ()
    for key, value in [*from_file, *(overrides or {}).items()]:
        _check(key, value)
        cfg[key] = value
        explicit.add(key)
    seed_keys = [key for key in DEFAULTS if key.endswith(".seed")]
    if seed is None and os.environ.get("DEBIAS_FORGE_SEED"):
        try:
            seed = int(os.environ["DEBIAS_FORGE_SEED"])
        except ValueError as e:
            raise ConfigError(f"DEBIAS_FORGE_SEED must be an integer: {e}") from e
        # env var is a default only: explicit config keys win
        seed_keys = [key for key in seed_keys if key not in explicit]
    if seed is not None:
        for key in seed_keys:
            cfg[key] = seed
    return cfg


def config_of(cls, cfg: dict):
    """The cls config dataclass with each field read from its config key (a
    list field's value as a list), or built from its own type's section."""
    kw = {}
    for f in fields(cls):
        value = config_of(f.type, cfg) if f.type in SECTIONS else cfg[f"{SECTIONS[cls]}.{f.name}"]
        kw[f.name] = _as_list(value) if get_origin(f.type) is list else value
    return cls(**kw)


# ---------------------------------------------------------------------------
# the command frame and report output

# the config key of the seed that each command's manifest records
MANIFEST_SEEDS = {"generate": "data.seed", "shallow": "shallow.seed",
                  "identify": "shallow.seed", "train": "train.seed", "report": "data.seed"}


class Run:
    """One command's frame: its resolved config and digest, the inputs it
    reads and the outputs it writes, which its manifest lists."""

    def __init__(self, args):
        self.args = args
        self.cfg = resolve_config(args.config, args.overrides, args.seed)
        self.digest = config_digest(self.cfg)
        self.inputs, self.outputs, self.started = [], [], time.time()

    def read(self, path):
        """path, recorded as an input."""
        self.inputs.append(path)
        return path

    def output(self, name):
        """The out-dir path of name with {} filled by the digest, recorded as
        an output; a command that writes nothing makes no out dir."""
        os.makedirs(self.args.out_dir, exist_ok=True)
        path = os.path.join(self.args.out_dir, name.format(self.digest))
        self.outputs.append(path)
        return path

    def finish(self, status: int, error):
        """Write the manifest of the outputs so far, if any, with the exit status and error."""
        if not self.outputs:
            return
        args = self.args
        command = f"report-{args.kind}" if args.command == "report" else args.command
        write_json(os.path.join(args.out_dir, f"{command}-{self.digest}.manifest.json"), {
            "digest": self.digest, "command": command,
            "inputs": self.inputs or [args.config or "<defaults>"], "outputs": self.outputs,
            "seed": self.cfg[MANIFEST_SEEDS[args.command]], "version": __version__,
            "started_at": self.started, "finished_at": time.time(),
            "status": status, "error": error,
        })


def write_csv(path, rows):
    """rows, dicts with the same keys, under a header of the first one's keys."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# commands

def load_suite(run, directory, required) -> dict:
    """The eval_<split>.jsonl sets of directory, read through run; a split's
    file may be missing unless required, but not every split's."""
    suite = {}
    for split in ("original", "biased", "anti_biased"):
        path = os.path.join(directory, f"eval_{split}.jsonl")
        if required or os.path.exists(path):
            suite[split] = load_dataset(run.read(path))
    if not suite:
        raise DataError(f"{directory}: no eval_<split>.jsonl files found")
    return suite


def cmd_generate(args, run) -> int:
    scfg = config_of(SynthConfig, run.cfg)
    train = inject_bias(gen_dataset(scfg), m=scfg.bias_proportion,
                        rho=scfg.manipulated_fraction, seed=scfg.seed)
    suite = make_eval_suite(scfg)
    save_dataset(train, run.output("train.jsonl"))
    for split, ds in suite.items():
        save_dataset(ds, run.output(f"eval_{split}.jsonl"))
    logger.info("wrote %d data sets under %s", len(run.outputs), args.out_dir)
    return 0


def cmd_shallow(args, run) -> int:
    s_cfg = config_of(ShallowConfig, run.cfg)
    selection = config_of(ShallowSelection, run.cfg)
    train = load_dataset(run.read(args.data))
    thresholds = selection.thresholds(train)
    if args.grid:
        best, rows, best_fit = grid_search_shallow(
            train, selection.grid_sizes, selection.grid_epochs, base_cfg=s_cfg,
            thresholds=thresholds,
        )
        write_csv(run.output("grid-{}.csv"), rows)
        if best is None:
            write_json(run.output("diagnosis-{}.json"), {"passed": False, "grid_rows": len(rows)})
            raise DegenerateShallowError("no grid cell passed the selection thresholds")
        s_cfg = best
        model, diag = best_fit
        logger.info("grid selected sample_size=%d epochs=%d", best.sample_size, best.epochs)
    else:
        model, subset_ids = train_shallow(train, s_cfg)
        diag = validate_shallow(model, train.without(subset_ids, MAX_UNSEEN), thresholds)

    save_checkpoint(model, run.output("shallow-{}.ckpt.json"), config_digest=run.digest)
    write_json(run.output("diagnosis-{}.json"), {
        **asdict(diag),
        "sample_size": s_cfg.sample_size, "epochs": s_cfg.epochs,
        "acc_band": list(thresholds.acc_band),
    })
    if diag.degenerate:
        raise DegenerateShallowError(
            f"shallow model is degenerate: unseen accuracy {diag.unseen_accuracy:.3f} "
            f"is within {thresholds.degenerate_margin:.0%} of chance"
        )
    logger.info("shallow diagnosis: acc=%.3f high_conf=%.3f passed=%s",
                diag.unseen_accuracy, diag.high_conf_fraction, diag.passed)
    return 0


def cmd_identify(args, run) -> int:
    model = load_checkpoint(run.read(args.checkpoint))
    train = load_dataset(run.read(args.data))
    subset_ids = model.meta.get("subset_ids", [])
    if not (type(subset_ids) is list and all(type(i) is int for i in subset_ids)):
        raise SchemaError(f"{args.checkpoint}: meta.subset_ids must be a list of "
                          f"integers, got {subset_ids!r:.80}")
    if not subset_ids:
        raise DataError(f"{args.checkpoint}: no subset_ids recorded; "
                        "was this checkpoint produced by the shallow command?")
    weights = compute_bias_weights(model, train.without(set(subset_ids)))
    path = run.output("weights-{}.jsonl")
    save_bias_weights(weights, path)
    logger.info("wrote %d bias-weight entries to %s", len(weights), path)
    return 0


def cmd_train(args, run) -> int:
    t_cfg = config_of(TrainConfig, run.cfg)
    train = load_dataset(run.read(args.data))

    weights_path = args.weights or t_cfg.weights_path
    weights = None
    if t_cfg.method == "baseline_ce":
        if weights_path:
            logger.info("method baseline_ce ignores the weights file %s", weights_path)
    else:
        if not weights_path:
            raise ConfigError(f"method {t_cfg.method!r} requires --weights (or train.weights_path)")
        weights = load_bias_weights(run.read(weights_path), train.num_labels)
        kept = np.flatnonzero(np.isin(train.examples.ids, weights.ids))
        if len(kept) < len(train):
            logger.info("dropping %d examples without bias weights (shallow subset)",
                        len(train) - len(kept))
            train = replace(train, examples=train.examples.take(kept))

    eval_suite = None
    if args.eval_dir:
        eval_suite = load_suite(run, args.eval_dir, required=False)
        for ds in eval_suite.values():  # before a teacher is trained on train
            check_model_data(ds, train.num_labels, train.vocab_size)

    teacher = None
    if t_cfg.method == "conf_reg":
        teacher_digest = config_digest({**run.cfg, "train.method": "baseline_ce"})
        teacher = train_teacher(train, t_cfg)
        teacher_path = run.output(f"teacher-{teacher_digest}.ckpt.json")
        save_checkpoint(teacher, teacher_path, config_digest=teacher_digest)
        logger.info("trained the teacher and wrote %s", teacher_path)

    model, metrics = train_main(train, weights, t_cfg, eval_suite=eval_suite, teacher=teacher)

    ckpt_path = run.output("model-{}.ckpt.json")
    save_checkpoint(model, ckpt_path, step=metrics[-1]["step"], config_digest=run.digest)
    write_metrics(metrics, run.output("run-{}.metrics.jsonl"))
    logger.info("trained %s for %d steps; checkpoint %s",
                t_cfg.method, metrics[-1]["step"], ckpt_path)
    return 0


# -- reports: each kind returns its CSV rows and its JSON summary -----------

def worker_count(jobs: int) -> int:
    """The processes --jobs asks for, at most one per CPU."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def report_trajectory(args, run):
    if not args.metrics:
        raise ConfigError("report kind 'trajectory' requires --metrics")
    records = [r for r in read_metrics(run.read(args.metrics)) if "acc_original" in r]
    if not records:
        raise DataError(f"{args.metrics}: no evaluation records; "
                        "was training run with an eval suite?")
    # five columns, of which a split that the run did not evaluate stays empty
    columns = ("step", "acc_original", "acc_biased", "acc_anti_biased", "alpha")
    rows = [{k: r.get(k, "") for k in columns} for r in records]
    return rows, {"points": len(rows), "final": records[-1]}


def report_histogram(args, run):
    if not (args.checkpoint and args.data):
        raise ConfigError("report kind 'histogram' requires --checkpoint and --data")
    model = load_checkpoint(run.read(args.checkpoint))
    split = load_dataset(run.read(args.data))
    hist = confidence_histogram(model, split, bin_width=run.cfg["report.bin_width"])
    rows = [{"bin_lo": lo, "bin_hi": hi, "count": n, "correct": c, "correct_fraction": f}
            for lo, hi, n, c, f in zip(hist.edges, hist.edges[1:], hist.counts, hist.correct,
                                       hist.correct_fraction)]
    return rows, {"mean_confidence": hist.mean_confidence, "examples": len(split)}


def report_sweep(args, run):
    cfg, report = run.cfg, config_of(ReportConfig, run.cfg)
    rows = sweep_study(report.a_values, report.method, config_of(SynthConfig, cfg),
                       config_of(TrainConfig, cfg), config_of(ShallowConfig, cfg),
                       report.seeds, jobs=args.jobs)
    return rows, {"method": report.method, "points": len(rows)}


def report_proportion(args, run):
    cfg, report = run.cfg, config_of(ReportConfig, run.cfg)
    rows = bias_proportion_study(report.m_values, config_of(SynthConfig, cfg),
                                 config_of(TrainConfig, cfg), report.seeds, jobs=args.jobs)
    return rows, {"points": len(rows)}


def report_stability(args, run):
    if not args.data:
        raise ConfigError("report kind 'stability' requires --data")
    s_cfg = config_of(ShallowConfig, run.cfg)
    train = load_dataset(run.read(args.data))
    eval_ds = load_dataset(run.read(args.eval)) if args.eval else train
    rows = stability_study(train, s_cfg, run.cfg["report.n_runs"], eval_ds, jobs=args.jobs)
    ok = all(r["easy_acc"] > r["hard_acc"] for r in rows
             if not r["degenerate"] and r["easy_n"] and r["hard_n"])
    return rows, {"runs": len(rows), "degenerate_runs": sum(r["degenerate"] for r in rows),
                  "easy_above_hard": ok}


def report_compare(args, run):
    if not args.checkpoint_list or not args.suite_dir:
        raise ConfigError("report kind 'compare' requires --checkpoints and --suite-dir")
    suite = load_suite(run, args.suite_dir, required=True)
    rows = []
    for path in args.checkpoint_list:
        model = load_checkpoint(run.read(path))
        rows.append({"method": model.meta.get("method", os.path.basename(path)),
                     **{split: accuracy(model, ds) for split, ds in suite.items()}})
    return rows, {"methods": [r["method"] for r in rows]}


REPORTS = {"trajectory": report_trajectory, "histogram": report_histogram, "sweep": report_sweep,
           "proportion": report_proportion, "stability": report_stability,
           "compare": report_compare}


def cmd_report(args, run) -> int:
    rows, summary = REPORTS[args.kind](args, run)
    write_csv(run.output(f"{args.kind}-{{}}.csv"), rows)
    write_json(run.output(f"{args.kind}-{{}}.json"),
               {"digest": run.digest, "kind": args.kind, **summary})
    logger.info("report %s written under %s", args.kind, args.out_dir)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, value = (s.strip() for s in text.split("=", 1))
    return key, _parse_value(key, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debias-forge",
        description="Synthetic-bias lab: dataset generation, shallow bias "
                    "identification, debiased training, and analysis reports.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key = value config file")
    common.add_argument("--seed", type=int, default=None,
                        help="override every *.seed key (default: DEBIAS_FORGE_SEED)")
    common.add_argument("--jobs", type=int, default=1,
                        help="worker processes for report --kind proportion, sweep and "
                             "stability (at most one per CPU); every other command runs "
                             "in one process")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--quiet", action="store_true", help="suppress progress logging")
    common.add_argument("--set", dest="overrides_raw", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", parents=[common],
                   help="write the biased training set and eval suite")

    p = sub.add_parser("shallow", parents=[common],
                       help="train (or grid-search) the shallow bias model")
    p.add_argument("--data", required=True, help="training-set JSONL")
    p.add_argument("--grid", action="store_true", help="run the selection grid search")

    p = sub.add_parser("identify", parents=[common],
                       help="score unseen training examples with a shallow checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("train", parents=[common],
                       help="train the main model (baseline or debiased)")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", default=None, help="bias-weights JSONL")
    p.add_argument("--eval-dir", default=None,
                   help="directory with eval_<split>.jsonl for trajectory telemetry")

    p = sub.add_parser("report", parents=[common], help="emit CSV/JSON analysis reports")
    p.add_argument("--kind", required=True, choices=REPORTS)
    p.add_argument("--metrics", default=None, help="metrics JSONL (trajectory)")
    p.add_argument("--checkpoint", default=None, help="model checkpoint (histogram)")
    p.add_argument("--checkpoints", dest="checkpoint_list", nargs="+", default=None,
                   help="model checkpoints (compare)")
    p.add_argument("--suite-dir", default=None, help="eval-suite directory (compare)")
    p.add_argument("--data", default=None, help="dataset JSONL (histogram, stability)")
    p.add_argument("--eval", default=None, help="evaluation dataset (stability)")
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "shallow": cmd_shallow,
    "identify": cmd_identify,
    "train": cmd_train,
    "report": cmd_report,
}

# the exit code of each error that main reports, the first match winning
# (SchemaError is a DataError; an unreadable file is a data error)
EXIT_CODES = {ConfigError: 2, DataError: 3, NumericError: 4, DegenerateShallowError: 5,
              OSError: 3}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    # what the manifest records if an uncaught exception ends the command
    run, status, error = None, 1, "uncaught exception"
    try:
        args.overrides = dict(_parse_override(s) for s in args.overrides_raw)
        args.jobs = worker_count(args.jobs)
        run = Run(args)
        status, error = COMMANDS[args.command](args, run), None
    except tuple(EXIT_CODES) as e:
        logger.error("%s", e)
        status, error = next(c for kind, c in EXIT_CODES.items() if isinstance(e, kind)), str(e)
    finally:
        if run:
            run.finish(status, error)
    return status


if __name__ == "__main__":
    sys.exit(main())
