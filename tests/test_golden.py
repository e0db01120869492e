"""Golden digests: a TINY CLI pipeline's artifacts against committed sha256s.

The pipeline runs generate, `shallow --grid`, `shallow`, identify, `train`
for each of the four methods (with an eval suite and annealing) and all six
report kinds. Each artifact but the manifests (which carry timestamps and
paths) is hashed. Following perfbench's rule (`perfbench/run.py`):
- on the numeric platform the digests were recorded on (numpy, scipy, the
  BLAS kernel and the CPU features), every artifact is compared with them;
- with the same numpy version only, the datasets are compared with them
  (their bytes come from integer RNG draws alone) and the rest with a
  second run;
- otherwise every artifact is compared with a second run.

Record the digests again after a deliberate change of output bytes with
`python tests/test_golden.py`.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from debias_forge.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_digests.json")
SEED = "5"
# datasets: bytes that depend on numpy's version alone
DATA_PREFIX = "data/"

CONF = """
data.train_size = 600
data.test_size = 120
data.vocab_size = 60
data.tokens_per_segment = 4
shallow.sample_size = 150
shallow.epochs = 2
shallow.learning_rate = 0.005
shallow.feature_dim = 130
shallow.hidden = 8
shallow.grid_sizes = 150,300
shallow.grid_epochs = 1,2
train.epochs = 1
train.eval_every = 5
train.feature_dim = 130
train.hidden = 8
anneal.enabled = true
anneal.a = 0.5
report.seeds = 1,2
report.n_runs = 2
report.m_values = 0.6,0.9
report.a_values = 1.0,0.0
"""
# the grid needs a band its TINY cells can pass
WIDE_BAND = ["--set", "shallow.acc_band=0.0,1.0", "--set", "shallow.high_conf_min=0.0"]


def numeric_platform() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.numeric_platform()


def run_pipeline(out: Path) -> dict:
    """Run the pipeline under `out`; returns relative path -> sha256 of each
    artifact but the manifests."""
    conf = out / "run.conf"
    out.mkdir(parents=True)
    conf.write_text(CONF)

    def cli(command, *argv):
        args = [command, "--config", str(conf), "--seed", SEED, "--quiet", *argv]
        assert main(args) == 0, args

    def one(pattern):
        (path,) = out.glob(pattern)
        return str(path)

    data, train_path = out / "data", str(out / "data" / "train.jsonl")
    cli("generate", "--out-dir", str(data))
    cli("shallow", "--grid", "--data", train_path, "--out-dir", str(out / "grid"), *WIDE_BAND)
    cli("shallow", "--data", train_path, "--out-dir", str(out / "shallow"))
    cli("identify", "--data", train_path, "--out-dir", str(out / "weights"),
        "--checkpoint", one("shallow/shallow-*.ckpt.json"))
    weights = one("weights/weights-*.jsonl")
    for method in ("baseline_ce", "reweight", "poe", "conf_reg"):
        cli("train", "--data", train_path, "--weights", weights, "--eval-dir", str(data),
            "--out-dir", str(out / "train" / method), "--set", f"train.method={method}")
    models = [one(f"train/{m}/model-*.ckpt.json") for m in ("baseline_ce", "poe", "conf_reg")]
    reports = {
        "trajectory": ["--metrics", one("train/poe/run-*.metrics.jsonl")],
        "histogram": ["--checkpoint", models[1], "--data", str(data / "eval_original.jsonl")],
        "sweep": ["--set", "report.method=conf_reg"],
        "proportion": [],
        "stability": ["--data", train_path],
        "compare": ["--checkpoints", *models, "--suite-dir", str(data)],
    }
    for kind, argv in reports.items():
        cli("report", "--kind", kind, "--out-dir", str(out / "report"), *argv)
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p != conf and not p.name.endswith(".manifest.json")}


def test_pipeline_matches_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = numeric_platform()
    digests = run_pipeline(tmp_path / "run1")
    assert sorted(digests) == sorted(golden["digests"])
    if here == golden["platform"]:
        case, recorded = "every artifact against the golden digests", set(digests)
    elif here["numpy"] == golden["platform"]["numpy"]:
        case = "datasets against the golden digests, the rest against a second run"
        recorded = {name for name in digests if name.startswith(DATA_PREFIX)}
    else:
        case, recorded = "every artifact against a second run", set()
    print(f"golden digests: {case} ({len(recorded)} of {len(digests)} files recorded)")
    again = run_pipeline(tmp_path / "run2") if len(recorded) < len(digests) else {}
    for name, digest in digests.items():
        expect = golden["digests"][name] if name in recorded else again[name]
        assert digest == expect, name


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        found = run_pipeline(Path(tmp) / "run")
    GOLDEN.write_text(json.dumps({"platform": numeric_platform(), "digests": found},
                                 indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(found)} digests in {GOLDEN}", file=sys.stderr)
