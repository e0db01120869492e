import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import debias_forge
from debias_forge import evaluation
from debias_forge.classifier import Model, load_checkpoint
from debias_forge.cli import (
    DEFAULTS, SECTIONS, _parse_override, config_digest, config_of, main, parse_config_file,
    resolve_config, worker_count,
)
from debias_forge.errors import ConfigError
from debias_forge.evaluation import _pieces_per_seed
from debias_forge.objectives import AnnealSchedule
from debias_forge.synthgen import load_dataset
from debias_forge.trainer import TrainConfig, read_metrics


TINY_CONF = """
# fast settings for plumbing tests
data.train_size = 600
data.test_size = 120
data.vocab_size = 60
data.tokens_per_segment = 4
shallow.sample_size = 150
shallow.epochs = 2
shallow.learning_rate = 0.005
shallow.feature_dim = 130
shallow.hidden = 8
train.epochs = 1
train.eval_every = 5
train.feature_dim = 130
train.hidden = 8
report.seeds = 1,2
report.n_runs = 2
"""


@pytest.fixture()
def conf(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(TINY_CONF)
    return str(path)


def _run(*argv):
    return main(list(argv))


@pytest.fixture()
def pipeline(conf, tmp_path):
    """generate -> shallow -> identify once; returns the key paths."""
    out = tmp_path / "out"
    assert _run("generate", "--config", conf, "--out-dir", str(out), "--seed", "5",
                "--quiet") == 0
    cfg = resolve_config(conf, seed=5)
    digest = config_digest(cfg)
    assert _run("shallow", "--config", conf, "--data", str(out / "train.jsonl"),
                "--out-dir", str(out), "--seed", "5", "--quiet",
                "--set", "shallow.acc_band=0.0,1.0",
                "--set", "shallow.high_conf_min=0.0") == 0
    cfg2 = resolve_config(conf, {"shallow.acc_band": [0.0, 1.0],
                                 "shallow.high_conf_min": 0.0}, seed=5)
    d2 = config_digest(cfg2)
    ckpt = out / f"shallow-{d2}.ckpt.json"
    assert _run("identify", "--config", conf, "--checkpoint", str(ckpt),
                "--data", str(out / "train.jsonl"), "--out-dir", str(out),
                "--seed", "5", "--quiet") == 0
    weights = out / f"weights-{config_digest(resolve_config(conf, seed=5))}.jsonl"
    return {"out": out, "conf": conf, "digest": digest, "ckpt": ckpt,
            "weights": weights}


def test_parse_config_file(tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("a.b = 3\nx = hello  # trailing comment\nlist = 1,2.5,z\n"
                 "train.weights_path = 12345\ntrain.method = 0\n"
                 "shallow.acc_band = 0.1, 0.9\n")
    parsed = parse_config_file(p)
    # string keys keep their text; shallow.acc_band parses as two reals
    assert parsed == {"a.b": 3, "x": "hello", "list": [1, 2.5, "z"],
                      "train.weights_path": "12345", "train.method": "0",
                      "shallow.acc_band": [0.1, 0.9]}
    p.write_text("no equals sign\n")
    with pytest.raises(ConfigError):
        parse_config_file(p)


def test_unknown_key_suggestion(tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("bais_proportion = 0.5\n")
    with pytest.raises(ConfigError, match="data.bias_proportion"):
        resolve_config(str(p))


def test_digest_stable_under_key_order():
    a = resolve_config(None, {"train.epochs": 2, "data.seed": 9})
    b = resolve_config(None, {"data.seed": 9, "train.epochs": 2})
    assert config_digest(a) == config_digest(b)
    c = resolve_config(None, {"train.epochs": 3, "data.seed": 9})
    assert config_digest(a) != config_digest(c)


def test_seed_precedence(tmp_path, monkeypatch):
    conf = tmp_path / "c.conf"
    conf.write_text("data.seed = 1\n")
    monkeypatch.setenv("DEBIAS_FORGE_SEED", "7")
    cfg = resolve_config(str(conf))
    assert cfg["data.seed"] == 1        # explicit key beats the env default
    assert cfg["train.seed"] == 7       # env fills the unset ones
    assert resolve_config(str(conf), seed=3)["data.seed"] == 3


def test_generate_outputs_and_determinism(conf, tmp_path):
    o1, o2 = tmp_path / "g1", tmp_path / "g2"
    for o in (o1, o2):
        assert _run("generate", "--config", conf, "--out-dir", str(o),
                    "--seed", "4", "--quiet") == 0
    names = sorted(p.name for p in o1.iterdir())
    assert names == sorted(p.name for p in o2.iterdir())
    datasets = [n for n in names if n.endswith(".jsonl")]
    assert sorted(datasets) == ["eval_anti_biased.jsonl", "eval_biased.jsonl",
                                "eval_original.jsonl", "train.jsonl"]
    for n in datasets:
        assert (o1 / n).read_bytes() == (o2 / n).read_bytes()
    train = load_dataset(o1 / "train.jsonl")
    assert len(train) == 600


@pytest.mark.parametrize("bad", [-1, 10**6, 64])
def test_shallow_out_of_range_token_exits_3(conf, tmp_path, bad):
    out = tmp_path / "o"
    assert _run("generate", "--config", conf, "--out-dir", str(out), "--seed", "5",
                "--quiet") == 0
    train = out / "train.jsonl"
    lines = train.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["segment_a"][0] = bad
    lines[1] = json.dumps(rec, sort_keys=True)
    train.write_text("\n".join(lines) + "\n")
    assert _run("shallow", "--config", conf, "--data", str(train),
                "--out-dir", str(out), "--seed", "5", "--quiet",
                "--set", "shallow.acc_band=0.0,1.0",
                "--set", "shallow.high_conf_min=0.0") == 3


def test_generate_bad_config_exits_2(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("data.bias_proportion = 1.5\n")
    out = tmp_path / "o"
    assert _run("generate", "--config", str(conf), "--out-dir", str(out),
                "--quiet") == 2
    assert not (out / "train.jsonl").exists()
    # values of the wrong type, from --set and from the file
    for bad in ("data.train_size=abc", "train.epochs=two", "shallow.acc_band=a,b",
                "data.vocab_size=9223372036854775809",
                "shallow.acc_band=0.5", "shallow.acc_band=orcale"):
        assert _run("generate", "--set", bad, "--out-dir", str(out), "--quiet") == 2
    conf.write_text("report.seeds = 1, x\n")
    assert _run("generate", "--config", str(conf), "--out-dir", str(out),
                "--quiet") == 2
    assert not (out / "train.jsonl").exists()


READERS = ["dataset", "weights", "checkpoint", "metrics", "config"]


def _read_bad_file(conf, tmp_path, kind, content: bytes):
    """Exit code of a command that reads a file of `kind` holding `content`."""
    return _run(*_bad_file_argv(conf, tmp_path, kind, content))


def _bad_file_argv(conf, tmp_path, kind, content: bytes):
    """The arguments of a command that reads a file of `kind` holding `content`."""
    out = tmp_path / "o"
    assert _run("generate", "--config", conf, "--out-dir", str(out), "--seed", "5",
                "--quiet") == 0
    train, bad = str(out / "train.jsonl"), tmp_path / "bad"
    bad.write_bytes(content)
    args = {
        "dataset": ["shallow", "--config", conf, "--data", str(bad)],
        "weights": ["train", "--config", conf, "--set", "train.method=poe",
                    "--data", train, "--weights", str(bad)],
        "checkpoint": ["identify", "--config", conf, "--checkpoint", str(bad), "--data", train],
        "metrics": ["report", "--kind", "trajectory", "--config", conf, "--metrics", str(bad)],
        "config": ["generate", "--config", str(bad)],
    }[kind]
    return [*args, "--out-dir", str(tmp_path / "x"), "--quiet"]


@pytest.mark.parametrize("kind", READERS)
def test_non_utf8_input_exits_with_its_code(conf, tmp_path, caplog, kind):
    code = _read_bad_file(conf, tmp_path, kind, b'{"num_labels": 3}\xff\n')
    assert code == (2 if kind == "config" else 3)
    assert "not UTF-8" in caplog.text


# JSON that json.loads rejects with ValueError and RecursionError, not JSONDecodeError
UNPARSABLE = {"digits": "9" * 5000, "nesting": "[" * 100_000}


@pytest.mark.parametrize("fault", sorted(UNPARSABLE))
@pytest.mark.parametrize("kind", READERS)
def test_unparsable_json_exits_with_its_code(conf, tmp_path, kind, fault):
    value = UNPARSABLE[fault]
    line = f"data.seed = {value}" if kind == "config" else value
    code = _read_bad_file(conf, tmp_path, kind, (line + "\n").encode())
    assert code == (2 if kind == "config" else 3)
    if kind == "config":
        assert _run("generate", "--set", f"data.seed={value}",
                    "--out-dir", str(tmp_path / "y"), "--quiet") == 2


# a closed 70 000-deep object: orjson overflows the C stack on it
DEEP = '{"a": ' * 70_000 + "1" + "}" * 70_000
DEEP_FILES = {"dataset": '{"num_labels": 3, "vocab_size": 60}\n' + DEEP + "\n",
              "weights": DEEP + "\n"}


@pytest.mark.parametrize("kind", sorted(DEEP_FILES))
def test_deeply_nested_line_exits_3(conf, tmp_path, kind):
    # in a child process, so that a crash fails this test and not the session
    argv = _bad_file_argv(conf, tmp_path, kind, DEEP_FILES[kind].encode())
    src = os.path.dirname(os.path.dirname(debias_forge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-m", "debias_forge.cli", *argv],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert b"more than 1000" in proc.stderr


def test_resolve_config_value_types():
    ok = {"data.train_size": 10, "data.noise_token_rate": 1, "anneal.a": 0.5,
          "anneal.enabled": True, "report.seeds": 4, "report.m_values": [0.5, 1],
          "shallow.acc_band": [0.1, 0.9]}
    assert resolve_config(None, ok)["report.m_values"] == [0.5, 1]
    for key, value in [("data.train_size", 10.0), ("data.train_size", True),
                       ("anneal.a", "x"), ("anneal.enabled", 1),
                       ("report.seeds", [1, 2.5]), ("report.m_values", "a"),
                       ("train.weights_path", 12345), ("shallow.acc_band", [0.1, True]),
                       # real keys take finite values only
                       ("shallow.band_width", float("nan")), ("report.bin_width", float("inf")),
                       ("train.learning_rate", float("-inf")), ("anneal.a", 10**400),
                       ("report.m_values", [0.5, float("nan")]),
                       ("shallow.acc_band", [0.1, float("inf")])]:
        with pytest.raises(ConfigError, match=key):
            resolve_config(None, {key: value})


@pytest.mark.parametrize("setting", ["shallow.band_width=NaN", "report.bin_width=Infinity",
                                     "train.learning_rate=-Infinity", "anneal.a=1e999"])
def test_non_finite_real_exits_2(tmp_path, setting):
    # the config is refused before any input is read: no data file exists
    for command in (["shallow", "--data", str(tmp_path / "train.jsonl")],
                    ["report", "--kind", "histogram"], ["train", "--data", "x.jsonl"]):
        assert _run(*command, "--out-dir", str(tmp_path), "--quiet", "--set", setting) == 2


def test_shallow_hidden_zero_exits_2(conf, tmp_path):
    assert _run("generate", "--config", conf, "--out-dir", str(tmp_path), "--quiet") == 0
    assert _run("shallow", "--config", conf, "--data", str(tmp_path / "train.jsonl"),
                "--out-dir", str(tmp_path), "--quiet", "--set", "shallow.hidden=0") == 2


def test_config_rules_hold_where_a_command_overrides_the_value(conf, tmp_path):
    # a config is checked when a command builds it, also where the command
    # then replaces the value: the proportion study trains baseline_ce
    # whatever train.method says, and the grid trains each of grid_epochs
    # (a grid whose one cell passes with shallow.epochs unset)
    assert _run("generate", "--config", conf, "--out-dir", str(tmp_path), "--quiet") == 0
    for argv in (["report", "--kind", "proportion", "--set", "train.method=dro"],
                 ["shallow", "--grid", "--data", str(tmp_path / "train.jsonl"),
                  "--set", "shallow.grid_sizes=150", "--set", "shallow.grid_epochs=2",
                  "--set", "shallow.acc_band=0.0,1.0", "--set", "shallow.high_conf_min=0.0",
                  "--set", "shallow.epochs=0"]):
        out = tmp_path / argv[0]
        assert _run(*argv, "--config", conf, "--out-dir", str(out), "--quiet") == 2
        assert not out.exists()


def test_config_values_past_the_caps_exit_2_before_allocating(conf, tmp_path):
    # W1 of 130 x 10**12 weights, and a walk over 600 x 10**8 tokens, would
    # exhaust any memory: each config is refused when its command builds it
    assert _run("generate", "--config", conf, "--out-dir", str(tmp_path), "--quiet") == 0
    train = str(tmp_path / "train.jsonl")
    for argv in (["train", "--data", train, "--set", "train.hidden=1000000000000"],
                 ["shallow", "--data", train, "--set", "shallow.hidden=1000000000000"],
                 # under the first-layer cap, but scoring would build an (n, hidden) array
                 ["train", "--data", train, "--set", "train.hidden=1025"],
                 ["shallow", "--data", train, "--set", "shallow.hidden=1025"],
                 ["generate", "--set", "data.tokens_per_segment=100000000"]):
        out = tmp_path / argv[0]
        assert _run(*argv, "--config", conf, "--out-dir", str(out), "--quiet") == 2
        assert not out.exists()


def test_unknown_optimizer_exits_2_before_any_data_is_read(conf, tmp_path, monkeypatch):
    # each command refuses the value when it builds its config: it reads no
    # data file, which is missing here, and generates no data set
    monkeypatch.setattr(evaluation, "gen_dataset", lambda *a, **k: pytest.fail("data generated"))
    missing = str(tmp_path / "missing.jsonl")
    for argv in (["train", "--data", missing, "--set", "train.optimizer=bogus"],
                 ["shallow", "--data", missing, "--set", "shallow.optimizer=bogus"],
                 ["report", "--kind", "stability", "--data", missing,
                  "--set", "shallow.optimizer=bogus"],
                 ["report", "--kind", "proportion", "--set", "train.optimizer=bogus"],
                 ["report", "--kind", "sweep", "--set", "report.method=bogus"]):
        out = tmp_path / "out"
        assert _run(*argv, "--config", conf, "--out-dir", str(out), "--quiet") == 2
        assert not out.exists()


@pytest.mark.parametrize("grid,setting", [
    (True, "shallow.band_width=-3"),
    (False, "shallow.band_width=-3"),
    (False, "shallow.acc_band=0.9,0.1"),
    (False, "shallow.acc_band=1.5,2"),
    (False, "shallow.high_conf_min=1.5"),
])
def test_empty_shallow_band_exits_2(conf, tmp_path, grid, setting):
    assert _run("generate", "--config", conf, "--out-dir", str(tmp_path), "--quiet") == 0
    out = tmp_path / "shallow"
    # refused before any training, and before a data file is read: a missing
    # one exits 2 as well
    for data in ("train.jsonl", "missing.jsonl"):
        argv = ["shallow", "--config", conf, "--data", str(tmp_path / data),
                "--out-dir", str(out), "--quiet", "--set", setting]
        if grid:
            argv += ["--grid", "--set", "shallow.grid_sizes=150", "--set", "shallow.grid_epochs=1"]
        assert _run(*argv) == 2
        assert not out.exists()


@pytest.mark.parametrize("sizes,epochs", [("150,150", "2,2"), ("150,100,150", "2"),
                                          ("150", "1,2,1")])
def test_shallow_grid_repeated_values_exit_2(conf, tmp_path, featurized, sizes, epochs):
    assert _run("generate", "--config", conf, "--out-dir", str(tmp_path), "--quiet") == 0
    out = tmp_path / "shallow"
    assert _run("shallow", "--config", conf, "--data", str(tmp_path / "train.jsonl"),
                "--out-dir", str(out), "--quiet", "--grid", "--set", f"shallow.grid_sizes={sizes}",
                "--set", f"shallow.grid_epochs={epochs}") == 2
    # refused before any training
    assert featurized == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--grid", "--set", "shallow.grid_sizes=150,1000", "--set", "shallow.grid_epochs=1,2"],
    ["--set", "shallow.sample_size=600"],
])
def test_shallow_sample_size_past_train_set_exits_2(conf, tmp_path, featurized, argv):
    assert _run("generate", "--config", conf, "--out-dir", str(tmp_path), "--quiet") == 0
    out = tmp_path / "shallow"
    assert _run("shallow", "--config", conf, "--data", str(tmp_path / "train.jsonl"),
                "--out-dir", str(out), "--quiet", *argv) == 2
    # every cell is checked against the 600 examples before any trains
    assert featurized == []
    assert not out.exists()


def test_oracle_band_may_reach_past_0_and_1(conf, tmp_path):
    assert _run("generate", "--config", conf, "--out-dir", str(tmp_path), "--quiet") == 0
    assert _run("shallow", "--config", conf, "--data", str(tmp_path / "train.jsonl"),
                "--out-dir", str(tmp_path), "--quiet", "--set", "shallow.band_width=2") == 0
    (diag,) = tmp_path.glob("diagnosis-*.json")
    lo, hi = json.loads(diag.read_text())["acc_band"]
    assert lo < 0 and hi > 1


def test_default_config_is_pinned(monkeypatch):
    # a field added to a config dataclass becomes a config key and changes
    # every digest, and with it every artifact name
    monkeypatch.delenv("DEBIAS_FORGE_SEED", raising=False)
    assert len(DEFAULTS) == 42
    assert sorted(key for _, key, _ in FIELD_KEYS) == sorted(DEFAULTS)  # each key is a field
    assert config_digest(resolve_config(None)) == "7589b92487ecca79"


# (config dataclass, config key, field name) of every config key
FIELD_KEYS = [(cls, f"{section}.{f.name}", f.name) for cls, section in SECTIONS.items()
              for f in fields(cls) if f.type not in SECTIONS]
STRING_VALUES = {"train.method": "poe", "train.optimizer": "sgd", "shallow.optimizer": "sgd",
                 "train.weights_path": "w.jsonl", "report.method": "reweight"}


def _settings(key, default):
    """(--set text, value it builds) of values to set key to: a list key's in
    its scalar and its list form, and the band as oracle and as two reals."""
    if key == "shallow.acc_band":
        return [("oracle", "oracle"), ("0.2,0.8", [0.2, 0.8])]
    if isinstance(default, list):
        return [(str(default[0]), default[:1]), (",".join(map(str, default[:2])), default[:2])]
    if isinstance(default, str):
        return [(STRING_VALUES[key], STRING_VALUES[key])]
    if isinstance(default, bool):
        return [(str(not default).lower(), not default)]
    value = default / 2 if isinstance(default, float) else default + 1
    return [(str(value), value)]


@pytest.mark.parametrize("cls,key,name", FIELD_KEYS, ids=[k for _, k, _ in FIELD_KEYS])
def test_set_reaches_its_dataclass_field(cls, key, name):
    for text, value in _settings(key, DEFAULTS[key]):
        cfg = resolve_config(None, dict([_parse_override(f"{key}={text}")]))
        built = config_of(cls, cfg)
        assert repr(getattr(built, name)) == repr(value)  # of the same types, too
        assert built == replace(config_of(cls, resolve_config(None)), **{name: value})
        if cls is AnnealSchedule:  # the section of TrainConfig.anneal
            assert config_of(TrainConfig, cfg).anneal == built


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    key_list = readme.split("### Key config groups\n\n", 1)[1].split("\n\n", 1)[0]
    named = set()
    for item in key_list.split("\n- "):
        words = re.findall(r"`([^`]+)`", item)
        group = words[0][:-1] if words[0].endswith(".*") else ""
        named.update(group + w for w in words)
    assert [key for key in DEFAULTS if key not in named] == []


def test_identify_is_deterministic(pipeline):
    w1 = pipeline["weights"].read_bytes()
    assert _run("identify", "--config", pipeline["conf"],
                "--checkpoint", str(pipeline["ckpt"]),
                "--data", str(pipeline["out"] / "train.jsonl"),
                "--out-dir", str(pipeline["out"]), "--seed", "5", "--quiet") == 0
    assert pipeline["weights"].read_bytes() == w1


def test_identify_schema_mismatch_exits_3(pipeline, tmp_path):
    other = tmp_path / "other"
    assert _run("generate", "--config", pipeline["conf"], "--out-dir", str(other),
                "--set", "data.num_labels=4", "--seed", "5", "--quiet") == 0
    out = tmp_path / "x"
    assert _run("identify", "--checkpoint", str(pipeline["ckpt"]),
                "--data", str(other / "train.jsonl"),
                "--out-dir", str(out), "--quiet") == 3
    assert not out.exists()  # scored before the out dir is made


def _k5_suite(pipeline, tmp_path):
    """A TINY set and suite of K=5 labels over the pipeline's vocabulary of 60."""
    k5 = tmp_path / "k5"
    assert _run("generate", "--config", pipeline["conf"], "--out-dir", str(k5),
                "--set", "data.num_labels=5", "--seed", "5", "--quiet") == 0
    return k5


def _written(out, *patterns):
    return [p.name for pattern in patterns for p in out.glob(pattern)]


@pytest.mark.parametrize("method", ["baseline_ce", "conf_reg"])
def test_train_eval_dir_of_other_label_count_exits_3(pipeline, tmp_path, featurized, method):
    k5, out = _k5_suite(pipeline, tmp_path), tmp_path / "train"
    assert _run("train", "--config", pipeline["conf"], "--set", f"train.method={method}",
                "--data", str(pipeline["out"] / "train.jsonl"), "--eval-dir", str(k5),
                "--weights", str(pipeline["weights"]),
                "--out-dir", str(out), "--seed", "5", "--quiet") == 3
    # refused before the training set is featurized or a teacher is trained
    assert featurized == []
    assert _written(out, "model-*", "run-*", "teacher-*") == []


def test_train_eval_dir_with_an_empty_split_exits_3(pipeline, tmp_path, featurized):
    # a header-only split would put NaN accuracies into the metrics file
    eval_dir, out = tmp_path / "empty_original", tmp_path / "train"
    eval_dir.mkdir()
    header = (pipeline["out"] / "eval_original.jsonl").read_text().splitlines()[0]
    (eval_dir / "eval_original.jsonl").write_text(header + "\n")
    assert _run("train", "--config", pipeline["conf"], "--set", "train.method=conf_reg",
                "--data", str(pipeline["out"] / "train.jsonl"), "--eval-dir", str(eval_dir),
                "--weights", str(pipeline["weights"]),
                "--out-dir", str(out), "--seed", "5", "--quiet") == 3
    # refused before the training set is featurized or a teacher is trained
    assert featurized == []
    assert not out.exists()


@pytest.mark.parametrize("kind", ["compare", "histogram", "stability"])
def test_report_on_data_of_other_label_count_exits_3(pipeline, tmp_path, kind):
    out, k5, rep = pipeline["out"], _k5_suite(pipeline, tmp_path), tmp_path / "rep"
    assert _run("train", "--config", pipeline["conf"], "--data", str(out / "train.jsonl"),
                "--out-dir", str(out), "--seed", "5", "--quiet") == 0
    model = next(out.glob("model-*.ckpt.json"))
    argv = {
        "compare": ["--checkpoints", str(model), "--suite-dir", str(k5)],
        "histogram": ["--checkpoint", str(model), "--data", str(k5 / "eval_original.jsonl")],
        "stability": ["--data", str(out / "train.jsonl"),
                      "--eval", str(k5 / "eval_original.jsonl")],
    }[kind]
    assert _run("report", "--kind", kind, "--config", pipeline["conf"], *argv,
                "--out-dir", str(rep), "--seed", "5", "--quiet") == 3
    assert _written(rep, "*.csv", "*.json") == []


REFUSED = {
    "train_malformed_weights": ["train", "--set", "train.method=poe", "--weights", "{bad}"],
    "train_k5_eval_dir": ["train", "--eval-dir", "{k5}"],
    "stability_k5_eval": ["report", "--kind", "stability", "--eval", "{k5}/eval_original.jsonl"],
    "compare_k5_suite": ["report", "--kind", "compare", "--checkpoints", "{ckpt}",
                         "--suite-dir", "{k5}"],
    "trajectory_number_line": ["report", "--kind", "trajectory", "--metrics", "{bad}"],
    "trajectory_string_line": ["report", "--kind", "trajectory", "--metrics", "{bad}"],
}
BAD_FILES = {"train_malformed_weights": '{"id": 0, "p_b": [1, 0, 0]}\n',
             "trajectory_number_line": "5\n", "trajectory_string_line": '"acc_original"\n'}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_command_makes_no_out_dir(pipeline, tmp_path, case):
    bad, out = tmp_path / "bad.jsonl", tmp_path / "refused"
    bad.write_text(BAD_FILES.get(case, ""))
    paths = {"bad": bad, "k5": _k5_suite(pipeline, tmp_path), "ckpt": pipeline["ckpt"]}
    argv = [a.format(**paths) for a in REFUSED[case]]
    assert _run(*argv, "--config", pipeline["conf"], "--data", str(pipeline["out"] / "train.jsonl"),
                "--out-dir", str(out), "--seed", "5", "--quiet") == 3
    assert not out.exists()


@pytest.mark.parametrize("line", ['{"step": 1, "acc_original": {"x": 1}, "alpha": [1, 2]}',
                                  '{"acc_original": 0.5}'])
def test_trajectory_refuses_a_record_of_other_types(tmp_path, caplog, line):
    metrics, out = tmp_path / "run.metrics.jsonl", tmp_path / "report"
    metrics.write_text('{"step": 1, "acc_original": 0.5, "alpha": 1.0}\n' + line + "\n")
    assert _run("report", "--kind", "trajectory", "--metrics", str(metrics),
                "--out-dir", str(out), "--quiet") == 3
    assert f"{metrics}:2: " in caplog.text
    assert not out.exists()


def _manifest(out, command, digest, status=0, error=None):
    """The manifest of command in out, once its outputs are checked to be
    exactly the other files of out, each of them there."""
    manifest = json.loads((out / f"{command}-{digest}.manifest.json").read_text())
    written = sorted(p.name for p in out.iterdir() if not p.name.endswith(".manifest.json"))
    assert sorted(os.path.basename(p) for p in manifest["outputs"]) == written
    assert all(os.path.isfile(p) for p in manifest["outputs"])
    assert (manifest["command"], manifest["digest"]) == (command, digest)
    assert manifest["version"] == debias_forge.__version__
    assert manifest["started_at"] <= manifest["finished_at"]
    assert (manifest["status"], manifest["error"]) == (status, error)
    return manifest


def test_manifests_list_what_each_command_read_and_wrote(conf, tmp_path, monkeypatch):
    monkeypatch.delenv("DEBIAS_FORGE_SEED", raising=False)
    with open(conf, "a", encoding="utf-8") as fh:
        fh.write("data.seed = 5\nshallow.seed = 6\ntrain.seed = 7\n")
    out = {name: tmp_path / name for name in ("data", "shallow", "weights", "train", "report")}

    def run(command, name, *argv):
        assert _run(command, *argv, "--config", conf, "--out-dir", str(out[name]),
                    "--quiet") == 0

    def digest(sets=None):
        return config_digest(resolve_config(conf, sets))

    d, d_conf_reg = digest(), digest({"train.method": "conf_reg"})
    d_band = digest({"shallow.acc_band": [0.0, 1.0], "shallow.high_conf_min": 0.0})
    train = str(out["data"] / "train.jsonl")
    suite = [str(out["data"] / f"eval_{s}.jsonl") for s in ("original", "biased", "anti_biased")]

    run("generate", "data")
    m = _manifest(out["data"], "generate", d)
    assert (m["inputs"], m["outputs"], m["seed"]) == ([conf], [train, *suite], 5)

    run("shallow", "shallow", "--data", train,
        "--set", "shallow.acc_band=0.0,1.0", "--set", "shallow.high_conf_min=0.0")
    m = _manifest(out["shallow"], "shallow", d_band)
    ckpt = str(out["shallow"] / f"shallow-{d_band}.ckpt.json")
    assert (m["inputs"], m["seed"]) == ([train], 6)
    assert m["outputs"] == [ckpt, str(out["shallow"] / f"diagnosis-{d_band}.json")]

    run("identify", "weights", "--checkpoint", ckpt, "--data", train)
    m = _manifest(out["weights"], "identify", d)
    weights = str(out["weights"] / f"weights-{d}.jsonl")
    assert (m["inputs"], m["outputs"], m["seed"]) == ([ckpt, train], [weights], 6)

    run("train", "train", "--set", "train.method=conf_reg", "--data", train,
        "--weights", weights, "--eval-dir", str(out["data"]))
    m = _manifest(out["train"], "train", d_conf_reg)
    model = str(out["train"] / f"model-{d_conf_reg}.ckpt.json")
    assert (m["inputs"], m["seed"]) == ([train, weights, *suite], 7)
    # the teacher's digest is that of the config with train.method=baseline_ce
    assert m["outputs"] == [str(out["train"] / f"teacher-{d}.ckpt.json"), model,
                            str(out["train"] / f"run-{d_conf_reg}.metrics.jsonl")]

    run("report", "report", "--kind", "compare", "--suite-dir", str(out["data"]),
        "--checkpoints", model)
    m = _manifest(out["report"], "report-compare", d)
    assert (m["inputs"], m["seed"]) == ([*suite, model], 5)
    assert m["outputs"] == [str(out["report"] / f"compare-{d}.{ext}") for ext in ("csv", "json")]


def test_stability_eval_of_other_label_count_exits_3_before_training(conf, tmp_path, monkeypatch):
    data, k5 = tmp_path / "data", tmp_path / "k5"
    for out, sets in ((data, []), (k5, ["--set", "data.num_labels=5"])):
        assert _run("generate", "--config", conf, "--out-dir", str(out), *sets,
                    "--seed", "5", "--quiet") == 0
    calls, train_shallow = [], evaluation.train_shallow
    monkeypatch.setattr(evaluation, "train_shallow",
                        lambda *args, **kw: calls.append(1) or train_shallow(*args, **kw))
    assert _run("report", "--kind", "stability", "--config", conf,
                "--data", str(data / "train.jsonl"), "--eval", str(k5 / "eval_original.jsonl"),
                "--out-dir", str(tmp_path / "rep"), "--seed", "5", "--quiet") == 3
    assert calls == []


def test_report_histogram_scores_its_split_once(pipeline, tmp_path, monkeypatch):
    out, rep = pipeline["out"], tmp_path / "rep"
    assert _run("train", "--config", pipeline["conf"], "--data", str(out / "train.jsonl"),
                "--out-dir", str(out), "--seed", "5", "--quiet") == 0
    model_path = next(out.glob("model-*.ckpt.json"))
    split = load_dataset(out / "eval_original.jsonl")
    probs = load_checkpoint(model_path).predict_proba(split)
    calls = []
    predict_proba = Model.predict_proba

    def counting(self, ds):
        calls.append(len(ds))
        return predict_proba(self, ds)

    monkeypatch.setattr(Model, "predict_proba", counting)
    assert _run("report", "--kind", "histogram", "--config", pipeline["conf"],
                "--checkpoint", str(model_path), "--data", str(out / "eval_original.jsonl"),
                "--out-dir", str(rep), "--seed", "5", "--quiet") == 0
    assert calls == [len(split)]
    summary = json.loads(next(rep.glob("histogram-*.json")).read_text())
    assert summary["mean_confidence"] == float(probs.max(axis=1).mean())


@pytest.mark.parametrize("subset_ids", [5, [[1]], "abc", {"a": 1}, [1.5]])
def test_identify_malformed_subset_ids_exits_3(pipeline, tmp_path, subset_ids):
    obj = json.loads(pipeline["ckpt"].read_text())
    obj["meta"]["subset_ids"] = subset_ids
    bad = tmp_path / "bad.ckpt.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "x"
    assert _run("identify", "--config", pipeline["conf"], "--checkpoint", str(bad),
                "--data", str(pipeline["out"] / "train.jsonl"), "--out-dir", str(out),
                "--quiet") == 3
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999"])
def test_non_finite_checkpoint_exits_3(pipeline, tmp_path, value):
    obj = json.loads(pipeline["ckpt"].read_text())
    obj["W1"][0][0] = "@@"
    bad = tmp_path / "bad.ckpt.json"
    bad.write_text(json.dumps(obj).replace('"@@"', value))
    out = pipeline["out"]
    assert _run("identify", "--config", pipeline["conf"], "--checkpoint", str(bad),
                "--data", str(out / "train.jsonl"), "--out-dir", str(tmp_path / "x"),
                "--quiet") == 3
    assert _run("report", "--kind", "compare", "--checkpoints", str(bad),
                "--suite-dir", str(out), "--out-dir", str(tmp_path / "x"), "--quiet") == 3


def test_train_baseline_and_trajectory_report(pipeline, tmp_path):
    out = pipeline["out"]
    assert _run("train", "--config", pipeline["conf"],
                "--data", str(out / "train.jsonl"), "--eval-dir", str(out),
                "--out-dir", str(out), "--seed", "5", "--quiet") == 0
    metrics = out / f"run-{pipeline['digest']}.metrics.jsonl"
    assert metrics.exists()
    log = read_metrics(metrics)
    assert "acc_anti_biased" in log[-1]
    rep = tmp_path / "rep"
    assert _run("report", "--kind", "trajectory", "--metrics", str(metrics),
                "--config", pipeline["conf"], "--out-dir", str(rep),
                "--seed", "5", "--quiet") == 0
    csv_path = rep / f"trajectory-{pipeline['digest']}.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == "step,acc_original,acc_biased,acc_anti_biased,alpha"


def test_trajectory_of_a_run_that_evaluated_one_split(pipeline, tmp_path):
    out, eval_dir, rep = pipeline["out"], tmp_path / "only_original", tmp_path / "rep"
    eval_dir.mkdir()
    (eval_dir / "eval_original.jsonl").write_bytes((out / "eval_original.jsonl").read_bytes())
    assert _run("train", "--config", pipeline["conf"], "--data", str(out / "train.jsonl"),
                "--eval-dir", str(eval_dir), "--out-dir", str(tmp_path / "train"),
                "--seed", "5", "--quiet") == 0
    metrics = next((tmp_path / "train").glob("run-*.metrics.jsonl"))
    assert _run("report", "--kind", "trajectory", "--metrics", str(metrics),
                "--config", pipeline["conf"], "--out-dir", str(rep), "--seed", "5",
                "--quiet") == 0
    header, *lines = next(rep.glob("trajectory-*.csv")).read_text().splitlines()
    assert header == "step,acc_original,acc_biased,acc_anti_biased,alpha"
    cells = [line.split(",") for line in lines]
    assert cells and all(len(c) == 5 and c[0] and c[1] and c[2:4] == ["", ""] and c[4]
                         for c in cells)


def test_feature_dim_past_the_pair_hash_range_exits_2(pipeline, tmp_path):
    # 2**32 + 2*60 + 60: the pair hash is 32 bits, so no Featurizer takes it
    train = str(pipeline["out"] / "train.jsonl")
    for argv in (["train", "--set", "train.feature_dim=4294967476"],
                 ["shallow", "--set", "shallow.feature_dim=4294967476"]):
        out = tmp_path / argv[0]
        assert _run(*argv, "--config", pipeline["conf"], "--data", train,
                    "--out-dir", str(out), "--seed", "5", "--quiet") == 2
        assert not out.exists()


def test_checkpoint_of_an_impossible_feature_dim_exits_3(pipeline, tmp_path):
    # meta D=4 with vocabulary 60 leaves no room for pair hashes: no config
    # could have made it, so the file is at fault
    obj = json.loads(pipeline["ckpt"].read_text())
    obj["meta"]["D"], obj["W1"] = 4, obj["W1"][:4]
    bad = tmp_path / "bad.ckpt.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "x"
    assert _run("report", "--kind", "compare", "--checkpoints", str(bad),
                "--suite-dir", str(pipeline["out"]), "--out-dir", str(out), "--quiet") == 3
    assert not out.exists()


def test_histogram_past_max_bins_exits_2(pipeline, tmp_path):
    out = tmp_path / "x"
    assert _run("report", "--kind", "histogram", "--config", pipeline["conf"],
                "--checkpoint", str(pipeline["ckpt"]),
                "--data", str(pipeline["out"] / "eval_original.jsonl"),
                "--set", "report.bin_width=1e-300", "--out-dir", str(out), "--quiet") == 2
    assert not out.exists()


def test_train_debias_method_via_cli(pipeline):
    out = pipeline["out"]
    rc = _run("train", "--config", pipeline["conf"],
              "--set", "train.method=poe",
              "--data", str(out / "train.jsonl"),
              "--weights", str(pipeline["weights"]),
              "--out-dir", str(out), "--seed", "5", "--quiet")
    assert rc == 0
    cfg = resolve_config(pipeline["conf"], {"train.method": "poe"}, seed=5)
    ckpt = out / f"model-{config_digest(cfg)}.ckpt.json"
    meta = json.loads(ckpt.read_text())["meta"]
    assert meta["method"] == "poe"


@pytest.mark.parametrize("name", ["12345", "0"])
def test_train_numeric_weights_path_is_a_file_name(pipeline, monkeypatch, name):
    out = pipeline["out"]
    (out / name).write_bytes(pipeline["weights"].read_bytes())
    monkeypatch.chdir(out)
    assert _run("train", "--config", pipeline["conf"], "--set", "train.method=poe",
                "--set", f"train.weights_path={name}", "--data", "train.jsonl",
                "--out-dir", "w", "--seed", "5", "--quiet") == 0
    cfg = resolve_config(pipeline["conf"], {"train.method": "poe",
                                            "train.weights_path": name}, seed=5)
    assert (out / "w" / f"model-{config_digest(cfg)}.ckpt.json").exists()


BAD_WEIGHT_RECORDS = {
    "missing_id": lambda rec: rec.pop("id"),
    "missing_p_b_correct": lambda rec: rec.pop("p_b_correct"),
    "missing_predicted": lambda rec: rec.pop("predicted"),
    "nan_p_b": lambda rec: rec.update(p_b=[float("nan"), 0.5, 0.5]),
    "inf_p_b": lambda rec: rec.update(p_b=[float("inf"), 0.0, 0.0]),
    "out_of_range_p_b": lambda rec: rec.update(p_b=[5.0, -4.0, 0.0]),
    "sum_not_one_p_b": lambda rec: rec.update(p_b=[0.5, 0.5, 0.5]),
    "string_p_b": lambda rec: rec.update(p_b=["0.2", 0.3, 0.5]),
    "string_p_b_correct": lambda rec: rec.update(p_b_correct="x"),
    "nan_p_b_correct": lambda rec: rec.update(p_b_correct=float("nan")),
    "out_of_range_p_b_correct": lambda rec: rec.update(p_b_correct=1.5),
    "out_of_range_predicted": lambda rec: rec.update(predicted=99),
    "float_predicted": lambda rec: rec.update(predicted=1.0),
}


@pytest.mark.parametrize("case", sorted(BAD_WEIGHT_RECORDS))
def test_train_bad_weights_exit_3(pipeline, case):
    out = pipeline["out"]
    lines = pipeline["weights"].read_text().splitlines()
    rec = json.loads(lines[0])
    BAD_WEIGHT_RECORDS[case](rec)
    lines[0] = json.dumps(rec, sort_keys=True)
    bad = out / "bad-weights.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert _run("train", "--config", pipeline["conf"],
                "--set", "train.method=poe",
                "--data", str(out / "train.jsonl"), "--weights", str(bad),
                "--out-dir", str(out), "--seed", "5", "--quiet") == 3


@pytest.mark.parametrize("method,data", [
    ("baseline_ce", "header-only"), ("conf_reg", "header-only"), ("reweight", "uncovered"),
])
def test_empty_training_set_exits_3(pipeline, tmp_path, method, data):
    """A header-only data file, or weights that cover no example of the data."""
    out, train, weights = tmp_path / "train", pipeline["out"] / "train.jsonl", pipeline["weights"]
    if data == "header-only":
        train = tmp_path / "empty.jsonl"
        train.write_text((pipeline["out"] / "train.jsonl").read_text().splitlines()[0] + "\n")
    else:
        weights = tmp_path / "elsewhere.jsonl"
        weights.write_text("".join(
            json.dumps({**json.loads(line), "id": json.loads(line)["id"] + 10**6}) + "\n"
            for line in pipeline["weights"].read_text().splitlines()))
    assert _run("train", "--config", pipeline["conf"], "--set", f"train.method={method}",
                "--data", str(train), "--weights", str(weights),
                "--out-dir", str(out), "--seed", "5", "--quiet") == 3
    assert _written(out, "teacher-*", "model-*", "run-*") == []


def test_train_missing_weights_exits_2(pipeline):
    out = pipeline["out"]
    assert _run("train", "--config", pipeline["conf"],
                "--set", "train.method=reweight",
                "--data", str(out / "train.jsonl"),
                "--out-dir", str(out), "--quiet") == 2


def _conf_reg_argv(pipeline, data, out):
    return ["train", "--config", pipeline["conf"], "--set", "train.method=conf_reg",
            "--data", str(data), "--weights", str(pipeline["weights"]),
            "--out-dir", str(out), "--seed", "5", "--quiet"]


def test_conf_reg_rerun_rewrites_teacher_with_same_bytes(pipeline):
    out = pipeline["out"]
    argv = _conf_reg_argv(pipeline, out / "train.jsonl", out)
    assert _run(*argv) == 0
    [teacher] = out.glob("teacher-*.ckpt.json")
    first = teacher.read_bytes()
    os.utime(teacher, ns=(0, 0))
    assert _run(*argv) == 0
    assert teacher.stat().st_mtime_ns != 0 and teacher.read_bytes() == first


def test_conf_reg_trains_its_own_teacher_over_another_data_sets(pipeline, tmp_path):
    """A teacher trained on other data under the same config digest is
    overwritten, not reused: the run's bytes equal a run in a fresh dir."""
    other, shared, fresh = tmp_path / "seed6", tmp_path / "shared", tmp_path / "fresh"
    assert _run("generate", "--config", pipeline["conf"], "--out-dir", str(other),
                "--seed", "6", "--quiet") == 0
    assert _run(*_conf_reg_argv(pipeline, other / "train.jsonl", shared)) == 0
    [stale] = shared.glob("teacher-*.ckpt.json")
    stale_bytes = stale.read_bytes()
    train = pipeline["out"] / "train.jsonl"
    assert _run(*_conf_reg_argv(pipeline, train, shared)) == 0
    assert _run(*_conf_reg_argv(pipeline, train, fresh)) == 0
    assert _written(fresh, "teacher-*") == [stale.name]
    assert stale.read_bytes() == (fresh / stale.name).read_bytes() != stale_bytes
    [model] = fresh.glob("model-*.ckpt.json")
    assert (shared / model.name).read_bytes() == model.read_bytes()


def test_conf_reg_train_featurizes_main_set_once(pipeline, featurized):
    out = pipeline["out"]
    assert _run("train", "--config", pipeline["conf"], "--set", "train.method=conf_reg",
                "--data", str(out / "train.jsonl"), "--weights", str(pipeline["weights"]),
                "--out-dir", str(out), "--seed", "5", "--quiet") == 0
    # the teacher and the main model share the main-training set's matrix
    n_main = len(pipeline["weights"].read_text().splitlines())
    assert featurized == [n_main]


def test_shallow_grid_featurizes_winners_unseen_once(pipeline, tmp_path, featurized):
    assert _run("shallow", "--config", pipeline["conf"], "--grid",
                "--data", str(pipeline["out"] / "train.jsonl"),
                "--set", "shallow.grid_sizes=150", "--set", "shallow.grid_epochs=2",
                "--set", "shallow.acc_band=0.0,1.0", "--set", "shallow.high_conf_min=0.0",
                "--out-dir", str(tmp_path / "grid"), "--seed", "5", "--quiet") == 0
    # the subset, then its 450 unseen examples once: the grid's diagnosis of
    # the winner is the one written
    assert featurized == [150, 450]


def test_shallow_grid_no_pass_exits_5(pipeline, tmp_path):
    out = tmp_path / "grid"
    rc = _run("shallow", "--config", pipeline["conf"], "--grid",
              "--data", str(pipeline["out"] / "train.jsonl"),
              "--set", "shallow.grid_sizes=150", "--set", "shallow.grid_epochs=1",
              "--set", "shallow.acc_band=0.98,0.99",
              "--out-dir", str(out), "--seed", "5", "--quiet")
    assert rc == 5
    # a manifest lists what the failed command wrote
    digest = config_digest(resolve_config(pipeline["conf"], {
        "shallow.grid_sizes": 150, "shallow.grid_epochs": 1, "shallow.acc_band": [0.98, 0.99],
    }, seed=5))
    m = _manifest(out, "shallow", digest, status=5,
                  error="no grid cell passed the selection thresholds")
    assert m["outputs"] == [str(out / f"grid-{digest}.csv"), str(out / f"diagnosis-{digest}.json")]


def test_report_stability_and_compare(pipeline, tmp_path):
    out = pipeline["out"]
    rep = tmp_path / "rep2"
    assert _run("report", "--kind", "stability", "--config", pipeline["conf"],
                "--data", str(out / "train.jsonl"), "--out-dir", str(rep),
                "--seed", "5", "--quiet") == 0
    stab = next(rep.glob("stability-*.json"))
    assert json.loads(stab.read_text())["runs"] == 2

    assert _run("train", "--config", pipeline["conf"],
                "--data", str(out / "train.jsonl"),
                "--out-dir", str(out), "--seed", "5", "--quiet") == 0
    model = next(out.glob("model-*.ckpt.json"))
    assert _run("report", "--kind", "compare", "--checkpoints", str(model),
                "--suite-dir", str(out), "--out-dir", str(rep),
                "--seed", "5", "--quiet") == 0
    rows = next(rep.glob("compare-*.csv")).read_text().splitlines()
    assert rows[0] == "method,original,biased,anti_biased"
    assert len(rows) == 2


def test_report_missing_inputs_exit_2(tmp_path):
    assert _run("report", "--kind", "trajectory",
                "--out-dir", str(tmp_path), "--quiet") == 2
    assert _run("report", "--kind", "compare",
                "--out-dir", str(tmp_path), "--quiet") == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tmp_path, jobs):
    out = tmp_path / "out"
    assert _run("report", "--kind", "proportion", "--jobs", jobs,
                "--out-dir", str(out), "--quiet") == 2
    assert not out.exists()


@pytest.mark.parametrize("kind,sets", [
    ("proportion", ["report.m_values=0.6,1.5"]),
    ("sweep", ["report.method=poe", "report.a_values=1.0,1.5"]),
])
def test_study_value_out_of_range_exits_2_before_a_pool_starts(
        conf, tmp_path, monkeypatch, kind, sets):
    pools = []

    class CountingPool(evaluation.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so that --jobs 2 asks for two processes
    out = tmp_path / "out"
    argv = ["report", "--kind", kind, "--config", conf, "--jobs", "2",
            "--out-dir", str(out), "--quiet"]
    for s in sets:
        argv += ["--set", s]
    assert _run(*argv) == 2
    assert not out.exists()
    assert pools == []


def test_worker_count_is_at_most_one_per_cpu(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert [worker_count(j) for j in (1, 2, 3, 64)] == [1, 2, 2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(8) == 1
    with pytest.raises(ConfigError):
        worker_count(0)


@pytest.mark.parametrize("seeds,values,jobs,pieces", [
    (3, 6, 1, 1),  # serial: one job per seed
    (3, 4, 2, 1),  # at least as many seeds as jobs: one job per seed
    (4, 4, 4, 1),
    (1, 4, 2, 2),  # fewer seeds than jobs: split so every process works
    (2, 6, 3, 2),
    (1, 6, 4, 4),
    (1, 4, 8, 4),  # never more pieces than values
    (2, 0, 4, 1),
])
def test_pieces_per_seed(seeds, values, jobs, pieces):
    assert _pieces_per_seed(seeds, values, jobs) == pieces


@pytest.mark.parametrize("kind,sets", [
    ("proportion", ["report.m_values=0.6,0.9"]),
    ("sweep", ["report.method=conf_reg", "report.a_values=1.0,0.0"]),
    # one seed on two processes: each seed's values are cut into pieces
    ("proportion", ["report.m_values=0.6,0.9", "report.seeds=3"]),
    ("sweep", ["report.method=conf_reg", "report.a_values=1.0,0.0", "report.seeds=3"]),
    # the study's one seed: its three runs are cut into two pieces
    ("stability", ["report.n_runs=3"]),
])
def test_report_study_kinds_same_bytes_for_any_jobs(conf, tmp_path, kind, sets):
    data = []
    if kind == "stability":  # a study of a given training set
        assert _run("generate", "--config", conf, "--out-dir", str(tmp_path / "data"),
                    "--seed", "5", "--quiet") == 0
        data = ["--data", str(tmp_path / "data" / "train.jsonl")]
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        argv = ["report", "--kind", kind, "--config", conf, "--out-dir", str(out),
                "--jobs", jobs, "--seed", "5", "--quiet", *data]
        for s in sets:
            argv += ["--set", s]
        assert _run(*argv) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir() if not p.name.endswith(".manifest.json"))
    assert [n.rsplit(".", 1)[1] for n in names] == ["csv", "json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    key, n = ("runs", 3) if kind == "stability" else ("points", 2)
    assert json.loads((outs[0] / names[1]).read_text())[key] == n
