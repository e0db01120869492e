"""Synthetic text-pair classification task with a controllable injected bias.

The genuine signal is a conjunction: segment_a carries one of K "a-signal"
tokens, segment_b one of K "b-signal" tokens, and the label is
(a_index + b_index) mod K. Each signal token's marginal over labels is
uniform, so no single token is informative; the task is only solvable by
combining the pair. The injected bias is a single token prepended to
segment_b that directly encodes a label, making it a much easier shortcut.

Vocabulary layout (disjoint ranges):
    [0, K)        bias tokens (token t decodes to label t)
    [K, 2K)       a-signal tokens
    [2K, 3K)      b-signal tokens
    [3K, vocab)   noise tokens
"""

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, DataError
from .rng import substream

BIAS_TAGS = ("clean", "biased", "anti_biased")


@dataclass(frozen=True)
class SynthConfig:
    num_labels: int = 3
    train_size: int = 20000
    test_size: int = 2000
    vocab_size: int = 1000
    tokens_per_segment: int = 8
    noise_token_rate: float = 1.0
    manipulated_fraction: float = 0.3
    bias_proportion: float = 0.9
    seed: int = 0

    def validate(self):
        if self.num_labels < 2:
            raise ConfigError(f"num_labels must be >= 2, got {self.num_labels}")
        if self.train_size <= 0 or self.test_size <= 0:
            raise ConfigError("train_size and test_size must be positive")
        if self.vocab_size < 3 * self.num_labels + 1:
            raise ConfigError(
                f"vocab_size {self.vocab_size} too small: needs 3*K bias/signal "
                f"tokens plus at least one noise token"
            )
        if self.tokens_per_segment < 1:
            raise ConfigError("tokens_per_segment must be >= 1")
        if not 0.0 <= self.noise_token_rate <= 1.0:
            raise ConfigError("noise_token_rate must be in [0, 1]")
        if not 0.0 <= self.manipulated_fraction <= 1.0:
            raise ConfigError("manipulated_fraction must be in [0, 1]")
        if not 0.0 <= self.bias_proportion <= 1.0:
            raise ConfigError("bias_proportion must be in [0, 1]")

    # token-range helpers
    def bias_token_for(self, label: int) -> int:
        return label

    def a_signal_token(self, idx: int) -> int:
        return self.num_labels + idx

    def b_signal_token(self, idx: int) -> int:
        return 2 * self.num_labels + idx

    @property
    def noise_range(self):
        return 3 * self.num_labels, self.vocab_size

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class Example:
    id: int
    segment_a: tuple
    segment_b: tuple
    label: int
    bias_tag: str = "clean"
    bias_token: int | None = None


@dataclass
class Dataset:
    examples: list
    num_labels: int
    vocab_size: int
    provenance: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.examples)

    def labels(self) -> np.ndarray:
        return np.array([ex.label for ex in self.examples], dtype=np.int64)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _make_segments(cfg: SynthConfig, rng: np.random.Generator, a_idx: int, b_idx: int):
    """One clean example body: signal token at a random slot, noise fillers."""
    lo, hi = cfg.noise_range
    segs = []
    for sig_tok in (cfg.a_signal_token(a_idx), cfg.b_signal_token(b_idx)):
        n_fill = cfg.tokens_per_segment - 1
        keep = rng.random(n_fill) < cfg.noise_token_rate if n_fill else np.zeros(0, bool)
        fill = rng.integers(lo, hi, size=n_fill)
        toks = list(fill[keep])
        pos = int(rng.integers(0, len(toks) + 1))
        toks.insert(pos, sig_tok)
        segs.append(tuple(int(t) for t in toks))
    return segs[0], segs[1]


def gen_dataset(config: SynthConfig) -> Dataset:
    """Generate train_size clean examples; deterministic given config.seed."""
    config.validate()
    rng = substream(config.seed, "gen")
    K = config.num_labels
    examples = []
    for i in range(config.train_size):
        a_idx = int(rng.integers(0, K))
        b_idx = int(rng.integers(0, K))
        label = (a_idx + b_idx) % K
        seg_a, seg_b = _make_segments(config, rng, a_idx, b_idx)
        examples.append(Example(id=i, segment_a=seg_a, segment_b=seg_b, label=label))
    return Dataset(
        examples=examples,
        num_labels=K,
        vocab_size=config.vocab_size,
        provenance={"config": asdict(config), "split": "train"},
    )


def _with_bias_token(ex: Example, code: int, tag: str) -> Example:
    return Example(
        id=ex.id,
        segment_a=ex.segment_a,
        segment_b=(code,) + ex.segment_b,
        label=ex.label,
        bias_tag=tag,
        bias_token=code,
    )


def inject_bias(dataset: Dataset, m: float, rho: float, seed: int) -> Dataset:
    """Prepend a label-coded token to round(rho*N) examples.

    Fraction m of the manipulated examples get the correct code (biased),
    the rest a uniformly random wrong code (anti_biased).
    """
    if not 0.0 <= m <= 1.0 or not 0.0 <= rho <= 1.0:
        raise ConfigError("m and rho must be in [0, 1]")
    if any(ex.bias_tag != "clean" for ex in dataset.examples):
        raise DataError("dataset already contains bias tags; refuse to re-inject")
    rng = substream(seed, "inject")
    N = len(dataset)
    n_manip = _round_half_up(rho * N)
    n_biased = _round_half_up(m * n_manip)
    order = rng.permutation(N)
    manip = order[:n_manip]
    biased_ids = set(int(i) for i in manip[:n_biased])
    anti_ids = set(int(i) for i in manip[n_biased:])
    K = dataset.num_labels
    out = []
    for idx, ex in enumerate(dataset.examples):
        if idx in biased_ids:
            out.append(_with_bias_token(ex, ex.label, "biased"))
        elif idx in anti_ids:
            wrong = int(rng.integers(0, K - 1))
            code = wrong if wrong < ex.label else wrong + 1
            out.append(_with_bias_token(ex, code, "anti_biased"))
        else:
            out.append(ex)
    prov = dict(dataset.provenance)
    prov["injection"] = {"m": m, "rho": rho, "seed": seed}
    return Dataset(out, dataset.num_labels, dataset.vocab_size, prov)


def make_eval_suite(config: SynthConfig) -> dict:
    """Three test sets: original (no bias tokens), fully biased, fully anti-biased."""
    config.validate()
    K = config.num_labels
    suite = {}
    for split in ("original", "biased", "anti_biased"):
        rng = substream(config.seed, f"eval_{split}")
        examples = []
        for i in range(config.test_size):
            a_idx = int(rng.integers(0, K))
            b_idx = int(rng.integers(0, K))
            label = (a_idx + b_idx) % K
            seg_a, seg_b = _make_segments(config, rng, a_idx, b_idx)
            ex = Example(id=i, segment_a=seg_a, segment_b=seg_b, label=label)
            if split == "biased":
                ex = _with_bias_token(ex, label, "biased")
            elif split == "anti_biased":
                wrong = int(rng.integers(0, K - 1))
                code = wrong if wrong < label else wrong + 1
                ex = _with_bias_token(ex, code, "anti_biased")
            examples.append(ex)
        suite[split] = Dataset(
            examples,
            K,
            config.vocab_size,
            provenance={"config": asdict(config), "split": f"eval_{split}"},
        )
    return suite


def bias_oracle_predict(example: Example):
    """Label decoded from the bias token, or None (abstain) on clean examples."""
    if example.bias_token is None:
        return None
    return int(example.bias_token)


def save_dataset(dataset: Dataset, path):
    """JSONL: header line with metadata, then one object per example."""
    cfg = dataset.provenance.get("config", {})
    digest = SynthConfig(**cfg).digest() if cfg else ""
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "num_labels": dataset.num_labels,
            "vocab_size": dataset.vocab_size,
            "config_digest": digest,
            "provenance": dataset.provenance,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for ex in dataset.examples:
            fh.write(
                json.dumps(
                    {
                        "id": ex.id,
                        "segment_a": list(ex.segment_a),
                        "segment_b": list(ex.segment_b),
                        "label": ex.label,
                        "bias_tag": ex.bias_tag,
                        "bias_token": ex.bias_token,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: bad header line: {e}") from e
    for key in ("num_labels", "vocab_size"):
        if key not in header:
            raise DataError(f"{path}: header missing '{key}'")
    vocab = header["vocab_size"]
    examples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{lineno}: bad example line: {e}") from e
        try:
            ex = Example(
                id=rec["id"],
                segment_a=tuple(rec["segment_a"]),
                segment_b=tuple(rec["segment_b"]),
                label=rec["label"],
                bias_tag=rec["bias_tag"],
                bias_token=rec["bias_token"],
            )
        except (KeyError, TypeError) as e:
            raise DataError(f"{path}:{lineno}: malformed example: {e!r}") from e
        if ex.bias_tag not in BIAS_TAGS:
            raise DataError(f"{path}:{lineno}: unknown bias_tag {ex.bias_tag!r}")
        if type(ex.label) is not int or not 0 <= ex.label < header["num_labels"]:
            raise DataError(f"{path}:{lineno}: label {ex.label!r} outside "
                            f"[0, {header['num_labels']})")
        for seg in (ex.segment_a, ex.segment_b):
            if seg and not (set(map(type, seg)) == {int} and 0 <= min(seg) and max(seg) < vocab):
                raise DataError(f"{path}:{lineno}: tokens must be integers in "
                                f"[0, {vocab}), got {list(seg)}")
        examples.append(ex)
    return Dataset(examples, header["num_labels"], header["vocab_size"], header.get("provenance", {}))
