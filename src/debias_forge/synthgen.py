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
from dataclasses import dataclass, field, asdict, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, read_json_lines
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
        if self.vocab_size > 2**63:
            raise ConfigError(f"vocab_size {self.vocab_size} too large: tokens must fit int64")
        if self.tokens_per_segment < 1:
            raise ConfigError("tokens_per_segment must be >= 1")
        if not 0.0 <= self.noise_token_rate <= 1.0:
            raise ConfigError("noise_token_rate must be in [0, 1]")
        if not 0.0 <= self.manipulated_fraction <= 1.0:
            raise ConfigError("manipulated_fraction must be in [0, 1]")
        if not 0.0 <= self.bias_proportion <= 1.0:
            raise ConfigError("bias_proportion must be in [0, 1]")

    @property
    def noise_range(self):
        return 3 * self.num_labels, self.vocab_size

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


class Example(NamedTuple):
    id: int
    segment_a: tuple
    segment_b: tuple
    label: int
    bias_tag: str = "clean"
    bias_token: int | None = None


@dataclass(frozen=True)
class Dataset:
    """A list of Examples and their label and vocabulary sizes. matrix()
    featurizes the examples once per featurizer and keeps the matrix as long
    as the Dataset; a replace()d Dataset starts with none."""
    examples: list
    num_labels: int
    vocab_size: int
    provenance: dict = field(default_factory=dict)
    _matrices: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __len__(self):
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def matrix(self, featurizer):
        """featurizer.matrix(self.examples), built on the first call for each
        equal featurizer."""
        if featurizer not in self._matrices:
            self._matrices[featurizer] = featurizer.matrix(self.examples)
        return self._matrices[featurizer]

    def labels(self) -> np.ndarray:
        return np.array([ex.label for ex in self.examples], dtype=np.int64)

    def without(self, ids, limit=None):
        """The Dataset of the first `limit` (default: all) examples whose id is not in ids."""
        return replace(self, examples=[ex for ex in self.examples if ex.id not in ids][:limit])

    def oracle_easy(self) -> np.ndarray:
        """True where the bias oracle predicts the gold label, false where it errs or abstains."""
        return np.array([bias_oracle_predict(ex) == ex.label for ex in self.examples], dtype=bool)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


# Generation replays, on the raw words of each PCG64 stream, the Generator
# calls of a per-example loop: integers(0, K) twice (a and b), then per segment
# random(n) (which fillers to keep, n = tokens_per_segment - 1),
# integers(lo, hi, size=n) (the fillers) and integers(0, kept + 1) (the signal
# position), and on the anti-biased eval split integers(0, K - 1) (the wrong
# code). numpy (2.x) makes a double of a word w as (w >> 11) * 2**-53. It draws
# from a range of r <= 2**32 values by Lemire's method on 32-bit halves of
# words, low half first, keeping an unused high half for the next call:
# u * r >> 32, drawing again while the low 32 bits of u * r are below
# (2**32 - r) % r. A wider range does the same on whole words, and a range of
# one draws nothing. So where an example starts in the stream depends on the
# values of the examples before it: _walk finds the starts one example after
# another with integer arithmetic, and _Lanes then draws the values of many
# examples at once, each from its own start.

_BLOCK = 1024  # examples walked and drawn together
_M32 = np.uint64(0xFFFFFFFF)
_U32, _U11 = np.uint64(32), np.uint64(11)


def _mulhi64(x, y):
    """High 64 bits of the 128-bit products x * y of uint64 arrays."""
    x0, x1 = x & _M32, x >> _U32
    y0, y1 = y & _M32, y >> _U32
    mid = (x0 * y0 >> _U32) + (x1 * y0 & _M32) + (x0 * y1 & _M32)
    return x1 * y1 + (x1 * y0 >> _U32) + (x0 * y1 >> _U32) + (mid >> _U32)


def _accepted(units, r: int, wide: bool):
    """Whether a Lemire draw from a range of r accepts each unit: a whole
    word if wide, else a 32-bit half."""
    bits = 64 if wide else 32
    low = units * np.uint64(r)
    if not wide:
        low &= _M32
    return low >= np.uint64((2**bits - r) % r)


class _Words:
    """The raw words of one PCG64 stream, drawn as they are first needed;
    word i of the stream is buf[i - base]."""

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator
        self.base = 0
        self.buf = np.empty(0, np.uint64)

    def upto(self, i: int):
        """Draw the words before word i."""
        short = i - self.base - len(self.buf)
        if short > 0:
            self.buf = np.concatenate([self.buf, self.bit_generator.random_raw(short)])

    def take(self, index):
        self.upto(int(index.max(initial=0)) + 1)
        return self.buf[index - self.base]

    def drop_before(self, i: int):
        self.buf = self.buf[i - self.base:]
        self.base = i


def _walk(cfg: SynthConfig, words: _Words, point: tuple, count: int, anti: bool):
    """The points where the next `count` examples start, the first at
    `point`, and the point after the last. A point is (w, kept, kw): the
    next fresh word, and whether the high half of word kw is kept for the
    next 32-bit draw. Each Generator call takes the units its rule takes;
    the fillers find their n-th accepted unit from a running count."""
    K, n, rate = cfg.num_labels, cfg.tokens_per_segment - 1, cfg.noise_token_rate
    lo, hi = cfg.noise_range
    R = hi - lo
    wide = R > 1 << 32
    starts, ahead = [], count * (4 * n + 8)
    while len(starts) < count:
        words.upto(point[0] + ahead)
        b, buf = words.base, words.buf
        x = memoryview(buf)
        keeps = memoryview(np.append(0, np.cumsum((buf >> _U11) * 2.0 ** -53 < rate)))
        units = buf if wide else np.stack([buf & _M32, buf >> _U32], axis=1).ravel()
        acc = _accepted(units, R, wide)
        accs, at = memoryview(np.append(0, np.cumsum(acc))), memoryview(np.flatnonzero(acc))

        def draw(w, kept, kw, r, k):
            """The point after k values from a range of r, one by one."""
            if r == 1:
                return w, kept, kw
            if r > 1 << 32:
                t = (2**64 - r) % r
                while k:
                    k -= x[w - b] * r % 2**64 >= t
                    w += 1
                return w, kept, kw
            t = (2**32 - r) % r
            while k:
                if kept:
                    u, kept = x[kw - b] >> 32, 0
                else:
                    u, kw, w, kept = x[w - b] & 0xFFFFFFFF, w, w + 1, 1
                k -= u * r & 0xFFFFFFFF >= t
            return w, kept, kw

        def fill(w, kept, kw):
            """The point after the n fillers."""
            if R == 1 or n == 0:
                return w, kept, kw
            if wide:
                return b + at[accs[w - b] + n - 1] + 1, kept, kw
            k = n
            if kept:  # the kept half comes first
                h = 2 * (kw - b) + 1
                k, kept = k - (accs[h + 1] - accs[h]), 0
                if k == 0:
                    return w, kept, kw
            e = at[accs[2 * (w - b)] + k - 1] + 1  # the half after the last taken
            return b + (e + 1) // 2, e & 1, b + (e + 1) // 2 - 1

        w, kept, kw = point
        try:  # an IndexError means the walk ran past the drawn words
            while len(starts) < count:
                w, kept, kw = draw(w, kept, kw, K, 2)
                for _ in range(2):
                    c = keeps[w - b + n] - keeps[w - b]
                    w, kept, kw = fill(w + n, kept, kw)
                    w, kept, kw = draw(w, kept, kw, c + 1, 1)
                if anti:
                    w, kept, kw = draw(w, kept, kw, K - 1, 1)
                starts.append(point)
                point = w, kept, kw
        except IndexError:
            ahead *= 2
    return starts, point


class _Lanes:
    """Copies of one Generator at different points of its stream (see
    _walk), drawn from together: each method returns, row per lane, what
    the Generator call of its name returns at that lane's point."""

    def __init__(self, words: _Words, w, kept, kw):
        self.words, self.w, self.kept, self.kw = words, w, kept, kw

    def random(self, n: int):
        x = self.words.take(self.w[:, None] + np.arange(n))
        self.w = self.w + n
        return (x >> _U11) * 2.0 ** -53

    def integers(self, r, n: int):
        """integers(0, r, size=n); r is one range or a range per lane."""
        r = np.broadcast_to(np.asarray(r, dtype=np.uint64), self.w.shape)[:, None]
        if n == 0:
            return np.zeros((self.w.size, 0), np.uint64)
        wide = bool((r > np.uint64(1 << 32)).any())
        need = np.where(r[:, 0] == 1, 0, n)
        look = n
        while True:  # look further until every lane has n accepted units
            if wide:
                x = self.words.take(self.w[:, None] + np.arange(look))
                values, ok = _mulhi64(x, r), x * r >= (np.uint64(0) - r) % r
            else:
                f = np.arange(look) - self.kept[:, None]  # fresh half index, -1 the kept one
                x = self.words.take(np.where(f < 0, self.kw[:, None], self.w[:, None] + f // 2))
                m = np.where(f & 1, x >> _U32, x & _M32) * r
                values, ok = m >> _U32, (m & _M32) >= (np.uint64(1 << 32) - r) % r
            if (ok.sum(axis=1) >= need).all():
                break
            look *= 2
        # each draw takes units up to the first it accepts
        at = np.argsort(~ok, axis=1, kind="stable")[:, :n]
        used = np.where(need > 0, at[:, -1] + 1, 0)
        if wide:
            self.w = self.w + used
        else:
            f = used - self.kept
            moved = used > 0
            self.w = self.w + np.where(moved, (f + 1) // 2, 0)
            self.kw = np.where(moved, self.w - 1, self.kw)
            self.kept = np.where(moved, f & 1, self.kept)
        return np.where(need[:, None] > 0, np.take_along_axis(values, at, axis=1), 0)


def _draw(cfg: SynthConfig, lanes: _Lanes, anti: bool):
    """One example per lane, drawn in the per-example loop's order: (a and
    b, per segment (keep mask, fillers, signal position), wrong code)."""
    K, n = cfg.num_labels, cfg.tokens_per_segment - 1
    lo, hi = cfg.noise_range
    ab = lanes.integers(K, 2)  # two integers(0, K) calls
    segs = []
    for _ in range(2):
        keep = lanes.random(n) < cfg.noise_token_rate
        fill = lanes.integers(hi - lo, n)
        segs.append((keep, fill, lanes.integers(keep.sum(axis=1) + 1, 1)[:, 0]))
    wrong = lanes.integers(K - 1, 1)[:, 0] if anti else None
    return ab, segs, wrong


def _examples(cfg: SynthConfig, draws, first_id: int, split: str) -> list:
    """The examples of the draws of _draw, ids from first_id on."""
    ab, segs, wrong = draws
    K, lo = cfg.num_labels, cfg.noise_range[0]
    a, b = ab[:, 0].astype(np.int64), ab[:, 1].astype(np.int64)
    labels = (a + b) % K
    j = np.arange(cfg.tokens_per_segment)
    tokens = []
    for (keep, fill, pos), sig in zip(segs, (K + a, 2 * K + b)):
        fill, pos = fill.astype(np.int64) + lo, pos.astype(np.int64)[:, None]
        # the kept fillers in order, the signal token inserted at pos
        fillers = np.take_along_axis(fill, np.argsort(~keep, axis=1, kind="stable"), axis=1)
        fillers = np.pad(fillers, ((0, 0), (0, 1)))
        toks = np.where(j == pos, sig[:, None], np.take_along_axis(fillers, j - (j > pos), axis=1))
        lengths = keep.sum(axis=1) + 1
        tokens.append([tuple(line[:c]) for line, c in zip(toks.tolist(), lengths.tolist())])
    ids, label_list = range(first_id, first_id + len(labels)), labels.tolist()
    if split == "anti_biased":
        wrong = wrong.astype(np.int64)
        codes = (wrong + (wrong >= labels)).tolist()
    elif split == "biased":
        codes = label_list
    else:
        return list(map(Example, ids, *tokens, label_list))
    seg_b = [(code,) + seg for code, seg in zip(codes, tokens[1])]
    return list(map(Example, ids, tokens[0], seg_b, label_list, [split] * len(codes), codes))


def _draw_examples(cfg: SynthConfig, stream: str, count: int, split: str) -> list:
    """`count` examples of `split` from substream (cfg.seed, stream), as the
    per-example loop draws them, _BLOCK at a time: walk to each example's
    start, then draw them all from their starts."""
    anti = split == "anti_biased"
    words = _Words(substream(cfg.seed, stream).bit_generator)
    point, examples = (0, 0, 0), []
    while len(examples) < count:
        starts, point = _walk(cfg, words, point, min(_BLOCK, count - len(examples)), anti)
        lanes = _Lanes(words, *(np.array(x, dtype=np.int64) for x in zip(*starts)))
        examples += _examples(cfg, _draw(cfg, lanes, anti), len(examples), split)
        words.drop_before(point[2] if point[1] else point[0])
    return examples


def gen_dataset(config: SynthConfig) -> Dataset:
    """Generate train_size clean examples; deterministic given config.seed."""
    config.validate()
    return Dataset(
        examples=_draw_examples(config, "gen", config.train_size, "train"),
        num_labels=config.num_labels,
        vocab_size=config.vocab_size,
        provenance={"config": asdict(config), "split": "train"},
    )


def _with_bias_token(ex: Example, code: int, tag: str) -> Example:
    return ex._replace(segment_b=(code,) + ex.segment_b, bias_tag=tag, bias_token=code)


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
    return {
        split: Dataset(
            _draw_examples(config, f"eval_{split}", config.test_size, split),
            config.num_labels,
            config.vocab_size,
            provenance={"config": asdict(config), "split": f"eval_{split}"},
        )
        for split in ("original", "biased", "anti_biased")
    }


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
        for ex in dataset.examples:  # json writes the segment tuples as lists
            fh.write(json.dumps(ex._asdict(), sort_keys=True) + "\n")


def load_dataset(path) -> Dataset:
    records = read_json_lines(path)
    lineno, header = next(records, (None, None))
    if lineno is None:
        raise DataError(f"{path}: empty dataset file")
    if not isinstance(header, dict):
        raise DataError(f"{path}: header must be a JSON object")
    for key in ("num_labels", "vocab_size"):
        if key not in header:
            raise DataError(f"{path}: header missing '{key}'")
        if type(header[key]) is not int:
            raise DataError(f"{path}: header '{key}' must be an integer, got {header[key]!r}")
    vocab = header["vocab_size"]
    # a bias token is a label, so the labels are among the tokens
    if not 2 <= header["num_labels"] <= vocab:
        raise DataError(f"{path}: header 'num_labels' must lie in [2, vocab_size {vocab}], "
                        f"got {header['num_labels']}")
    examples, ids = [], set()
    for lineno, rec in records:
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
        if type(ex.id) is not int or ex.id in ids:
            raise DataError(f"{path}:{lineno}: id must be an integer not seen before, "
                            f"got {ex.id!r}")
        ids.add(ex.id)
        token = ex.bias_token
        if (ex.bias_tag == "clean") != (token is None):
            raise DataError(f"{path}:{lineno}: bias_tag {ex.bias_tag!r} disagrees with "
                            f"bias_token {token!r}")
        if token is not None and not (type(token) is int and 0 <= token < vocab):
            raise DataError(f"{path}:{lineno}: bias_token {token!r} outside [0, {vocab})")
        # the rules inject_bias and the eval suite's biased splits follow
        if token is not None and ex.segment_b[:1] != (token,):
            raise DataError(f"{path}:{lineno}: bias_token {token} is not the first "
                            f"token of segment_b {list(ex.segment_b)}")
        if token is not None and (token == ex.label) != (ex.bias_tag == "biased"):
            raise DataError(f"{path}:{lineno}: a {ex.bias_tag} example's bias_token must "
                            f"{'equal' if ex.bias_tag == 'biased' else 'differ from'} "
                            f"its label {ex.label}, got {token}")
        examples.append(ex)
    return Dataset(examples, header["num_labels"], header["vocab_size"], header.get("provenance", {}))
