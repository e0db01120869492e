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

import json
from dataclasses import dataclass, field, asdict, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, config_digest, read_json_lines
from .rng import substream

BIAS_TAGS = ("clean", "biased", "anti_biased")
# the most tokens a split may hold per segment, train_size or test_size times
# tokens_per_segment: the walk's words, the columns and the file grow with it
MAX_SPLIT_TOKENS = 2**21


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

    def __post_init__(self):
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
        tokens = max(self.train_size, self.test_size) * self.tokens_per_segment
        if tokens > MAX_SPLIT_TOKENS:
            raise ConfigError(f"max(train_size, test_size) * tokens_per_segment = {tokens} is "
                              f"past MAX_SPLIT_TOKENS = {MAX_SPLIT_TOKENS}")
        if not 0.0 <= self.noise_token_rate <= 1.0:
            raise ConfigError("noise_token_rate must be in [0, 1]")
        if not 0.0 <= self.manipulated_fraction <= 1.0:
            raise ConfigError("manipulated_fraction must be in [0, 1]")
        if not 0.0 <= self.bias_proportion <= 1.0:
            raise ConfigError("bias_proportion must be in [0, 1]")

    @property
    def noise_range(self):
        return 3 * self.num_labels, self.vocab_size


class Example(NamedTuple):
    id: int
    segment_a: tuple
    segment_b: tuple
    label: int
    bias_tag: str = "clean"
    bias_token: int | None = None


def ragged_rows(offsets, rows):
    """(positions, offsets): where the items of the given rows of a ragged
    array, row i of which holds items offsets[i]:offsets[i + 1], lie, row
    after row, and the offsets of the rows among them."""
    starts, lengths = offsets[rows], offsets[rows + 1] - offsets[rows]
    out = _offsets(lengths)  # int64 positions: numpy indexes with them without a cast
    return np.repeat(starts - out[:-1], lengths) + np.arange(out[-1]), out.astype(offsets.dtype)


def _offsets(lengths):
    return np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])


@dataclass(frozen=True, eq=False)
class Columns:
    """Examples as numpy columns: int64 ids and labels, int8 indices into
    BIAS_TAGS, int64 bias tokens (-1 for None) and per segment a (tokens,
    offsets) pair: the int64 tokens of all rows, flat, and where each row's
    start and end. Iterating builds Examples on demand, as does an int
    index; a slice, or take(rows), gives Columns of those rows."""
    ids: np.ndarray
    labels: np.ndarray
    tags: np.ndarray
    bias_tokens: np.ndarray
    segments: tuple

    @classmethod
    def of(cls, examples):
        """examples as Columns: Columns as they are, a list of Examples packed."""
        if isinstance(examples, cls):
            return examples
        ids, seg_a, seg_b, labels, tags, tokens = zip(*examples) if examples else [()] * 6
        return cls(np.array(ids, np.int64), np.array(labels, np.int64),
                   np.array([BIAS_TAGS.index(t) for t in tags], np.int8),
                   np.array([-1 if t is None else t for t in tokens], np.int64),
                   tuple((np.fromiter(chain.from_iterable(segs), np.int64),
                          _offsets(list(map(len, segs)))) for segs in (seg_a, seg_b)))

    def __post_init__(self):
        for a in (self.ids, self.labels, self.tags, self.bias_tokens, *chain(*self.segments)):
            a.flags.writeable = False  # shared by every Dataset replace()d from one

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        (ta, oa), (tb, ob) = ((t.tolist(), o.tolist()) for t, o in self.segments)
        return map(Example, self.ids.tolist(), map(lambda i, j: tuple(ta[i:j]), oa, oa[1:]),
                   map(lambda i, j: tuple(tb[i:j]), ob, ob[1:]), self.labels.tolist(),
                   map(BIAS_TAGS.__getitem__, self.tags.tolist()),
                   [None if t < 0 else t for t in self.bias_tokens.tolist()])

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(np.arange(len(self))[key])
        return next(iter(self.take([range(len(self))[key]])))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (Columns, list)) else NotImplemented

    def take(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        segments = tuple((t[at], o) for t, (at, o) in
                         ((t, ragged_rows(o, rows)) for t, o in self.segments))
        return Columns(self.ids[rows], self.labels[rows], self.tags[rows],
                       self.bias_tokens[rows], segments)


@dataclass(frozen=True)
class Dataset:
    """Examples as Columns (a list of Examples is packed) and their label
    and vocabulary sizes. matrix() featurizes the examples once per
    featurizer and keeps the matrix as long as the Dataset; a replace()d
    Dataset starts with none."""
    examples: Columns
    num_labels: int
    vocab_size: int
    provenance: dict = field(default_factory=dict)
    _matrices: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "examples", Columns.of(self.examples))

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
        return self.examples.labels

    def without(self, ids, limit=None):
        """The Dataset of the first `limit` (default: all) examples whose id is not in ids."""
        keep = np.fromiter((i not in ids for i in self.examples.ids.tolist()), bool, len(self))
        return replace(self, examples=self.examples.take(np.flatnonzero(keep)[:limit]))

    def oracle_easy(self) -> np.ndarray:
        """True where the bias oracle predicts the gold label, false where it errs or abstains."""
        return self.examples.bias_tokens == self.examples.labels


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
# values of the examples before it: _walk steps through the examples one after
# another with integer arithmetic, taking each single value from the unit it
# accepts and noting where the keep masks and fillers lie, and _gather then
# reads those out of the words for many examples at once.

_BLOCK = 1024  # examples walked and gathered, or written, together
_M32 = np.uint64(0xFFFFFFFF)
_U32, _U11 = np.uint64(32), np.uint64(11)


def _mulhi64(x, y):
    """High 64 bits of the 128-bit products x * y of uint64 arrays."""
    x0, x1 = x & _M32, x >> _U32
    y0, y1 = y & _M32, y >> _U32
    mid = (x0 * y0 >> _U32) + (x1 * y0 & _M32) + (x0 * y1 & _M32)
    return x1 * y1 + (x1 * y0 >> _U32) + (x0 * y1 >> _U32) + (mid >> _U32)


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

    def drop_before(self, i: int):
        self.buf = self.buf[i - self.base:]
        self.base = i


def _walk(cfg: SynthConfig, words: _Words, point: tuple, count: int, anti: bool):
    """The draws of the next `count` examples, the first starting at
    `point`, as _gather gives them, and the point after the last. A point is
    (w, kept, kw): the next fresh word, and whether the high half of word kw
    is kept for the next 32-bit draw. Each Generator call takes the units
    its rule takes; the fillers find their n-th accepted unit from a running
    count. Each example's row holds a and b, per segment the first word of
    its random(n), the kept half that is its first filler (-1 for none),
    where in `at` its fresh fillers start and its signal position, and on
    the anti-biased split the wrong code."""
    K, n, rate = cfg.num_labels, cfg.tokens_per_segment - 1, cfg.noise_token_rate
    lo, hi = cfg.noise_range
    R = hi - lo
    wide = R > 1 << 32
    bits = 64 if wide else 32  # a unit is a whole word or a 32-bit half
    rows, width, ahead = [], 10 + anti, count * (4 * n + 8)
    while len(rows) < count * width:
        words.upto(point[0] + ahead)
        b, buf = words.base, words.buf
        x = memoryview(buf)
        keep = (buf >> _U11) * 2.0 ** -53 < rate
        keeps = memoryview(np.append(0, np.cumsum(keep)))
        units = buf if wide else np.stack([buf & _M32, buf >> _U32], axis=1).ravel()
        # Lemire's test of each unit for a draw from the noise range
        acc = (units * np.uint64(R) & np.uint64(2**bits - 1)) >= np.uint64((2**bits - R) % R)
        accs, at = memoryview(np.append(0, np.cumsum(acc))), memoryview(np.flatnonzero(acc))

        def draw(w, kept, kw, r):
            """The point after one value from a range of r, and the value."""
            if r == 1:
                return w, kept, kw, 0
            if r > 1 << 32:
                t = (2**64 - r) % r
                while True:
                    v, w = x[w - b] * r, w + 1
                    if v % 2**64 >= t:
                        return w, kept, kw, v >> 64
            t = (2**32 - r) % r
            while True:
                if kept:
                    u, kept = x[kw - b] >> 32, 0
                else:
                    u, kw, w, kept = x[w - b] & 0xFFFFFFFF, w, w + 1, 1
                v = u * r
                if v & 0xFFFFFFFF >= t:
                    return w, kept, kw, v >> 32

        def fill(w, kept, kw):
            """The point after the n fillers, the kept half that is the first
            of them (-1 for none) and where in `at` the fresh ones start."""
            if R == 1 or n == 0:
                return w, kept, kw, -1, 0
            if wide:
                s = accs[w - b]
                return b + at[s + n - 1] + 1, kept, kw, -1, s
            h, k = -1, n
            if kept:  # the kept half comes first
                kept, u = 0, 2 * (kw - b) + 1
                if accs[u + 1] > accs[u]:
                    h, k = u, n - 1
            s = accs[2 * (w - b)]
            if k == 0:
                return w, kept, kw, h, s
            e = at[s + k - 1] + 1  # the half after the last taken
            return b + (e + 1) // 2, e & 1, b + (e + 1) // 2 - 1, h, s

        w, kept, kw = point
        try:  # an IndexError means the walk ran past the drawn words
            while len(rows) < count * width:
                w, kept, kw, a = draw(w, kept, kw, K)
                w, kept, kw, c = draw(w, kept, kw, K)
                row = [a, c]
                for _ in range(2):
                    word = w - b
                    c = keeps[word + n] - keeps[word]
                    w, kept, kw, h, s = fill(w + n, kept, kw)
                    w, kept, kw, pos = draw(w, kept, kw, c + 1)
                    row += word, h, s, pos
                if anti:
                    w, kept, kw, wrong = draw(w, kept, kw, K - 1)
                    row.append(wrong)
                rows += row  # only whole examples: a retry walks on from point
                point = w, kept, kw
        except IndexError:
            ahead *= 2
    rows = np.array(rows, np.int64).reshape(count, width)
    return _gather(cfg, rows, units, np.asarray(at), keep, anti), point


def _gather(cfg: SynthConfig, rows, units, at, keep, anti: bool):
    """The draws of the rows of _walk, in the per-example loop's order: (a
    and b, per segment (keep mask, fillers, signal position), wrong code).
    A segment's fillers are the values of its kept half, if any, and then of
    the accepted units `at` lists from its start on."""
    n, (lo, hi) = cfg.tokens_per_segment - 1, cfg.noise_range
    R = np.uint64(hi - lo)
    segs = []
    for word, h, s, pos in (rows[:, 2:6].T, rows[:, 6:10].T):
        j = np.arange(n) - (h >= 0)[:, None]  # the fresh filler, -1 for the kept half
        u = units[np.where(j < 0, h[:, None], at[s[:, None] + j])]
        fill = _mulhi64(u, R) if R > 1 << 32 else u * R >> _U32
        segs.append((keep[word[:, None] + np.arange(n)], fill, pos))
    return rows[:, :2], segs, rows[:, 10] if anti else None


def _examples(cfg: SynthConfig, draws, split: str):
    """The columns of the examples of the draws of _walk: labels, bias
    tokens (-1 for none), then per segment its flat tokens and the length
    of each row's."""
    ab, segs, wrong = draws
    K, lo = cfg.num_labels, cfg.noise_range[0]
    a, b = ab[:, 0].astype(np.int64), ab[:, 1].astype(np.int64)
    labels = (a + b) % K
    if split == "anti_biased":
        wrong = wrong.astype(np.int64)
        codes = wrong + (wrong >= labels)
    else:
        codes = labels if split == "biased" else np.full(len(labels), -1, np.int64)
    j = np.arange(cfg.tokens_per_segment)
    columns = [labels, codes]
    for seg, ((keep, fill, pos), sig) in enumerate(zip(segs, (K + a, 2 * K + b))):
        fill, pos = fill.astype(np.int64) + lo, pos.astype(np.int64)[:, None]
        # the kept fillers in order, the signal token inserted at pos
        fillers = np.take_along_axis(fill, np.argsort(~keep, axis=1, kind="stable"), axis=1)
        fillers = np.pad(fillers, ((0, 0), (0, 1)))
        toks = np.where(j == pos, sig[:, None], np.take_along_axis(fillers, j - (j > pos), axis=1))
        lengths = keep.sum(axis=1) + 1
        if seg and split in ("biased", "anti_biased"):  # segment_b starts with the bias token
            toks, lengths = np.column_stack([codes, toks]), lengths + 1
        columns += [toks[np.arange(toks.shape[1]) < lengths[:, None]], lengths]
    return columns


def _draw_examples(cfg: SynthConfig, stream: str, count: int, split: str) -> Columns:
    """`count` examples of `split` from substream (cfg.seed, stream), as the
    per-example loop draws them, _BLOCK at a time."""
    anti = split == "anti_biased"
    words = _Words(substream(cfg.seed, stream).bit_generator)
    point, blocks = (0, 0, 0), []
    for start in range(0, count, _BLOCK):
        draws, point = _walk(cfg, words, point, min(_BLOCK, count - start), anti)
        blocks.append(_examples(cfg, draws, split))
        words.drop_before(point[2] if point[1] else point[0])
    labels, codes, tokens_a, lengths_a, tokens_b, lengths_b = map(np.concatenate, zip(*blocks))
    tag = BIAS_TAGS.index(split) if split in BIAS_TAGS else 0
    return Columns(np.arange(count, dtype=np.int64), labels, np.full(count, tag, np.int8), codes,
                   ((tokens_a, _offsets(lengths_a)), (tokens_b, _offsets(lengths_b))))


def gen_dataset(config: SynthConfig) -> Dataset:
    """Generate train_size clean examples; deterministic given config.seed."""
    return Dataset(
        examples=_draw_examples(config, "gen", config.train_size, "train"),
        num_labels=config.num_labels,
        vocab_size=config.vocab_size,
        provenance={"config": asdict(config), "split": "train"},
    )


def inject_bias(dataset: Dataset, m: float, rho: float, seed: int) -> Dataset:
    """Prepend a label-coded token to round(rho*N) examples.

    Fraction m of the manipulated examples get the correct code (biased),
    the rest a uniformly random wrong code (anti_biased).
    """
    if not 0.0 <= m <= 1.0 or not 0.0 <= rho <= 1.0:
        raise ConfigError("m and rho must be in [0, 1]")
    cols = dataset.examples
    if cols.tags.any():
        raise DataError("dataset already contains bias tags; refuse to re-inject")
    rng = substream(seed, "inject")
    N = len(cols)
    n_manip = _round_half_up(rho * N)
    n_biased = _round_half_up(m * n_manip)
    manip = rng.permutation(N)[:n_manip]
    biased, anti = manip[:n_biased], np.sort(manip[n_biased:])
    # one integers(0, K - 1) per anti-biased example in index order draws
    # the same stream as this one call
    wrong = rng.integers(0, dataset.num_labels - 1, len(anti))
    tags, codes = np.zeros(N, np.int8), np.full(N, -1, np.int64)
    tags[biased], codes[biased] = BIAS_TAGS.index("biased"), cols.labels[biased]
    tags[anti], codes[anti] = BIAS_TAGS.index("anti_biased"), wrong + (wrong >= cols.labels[anti])
    tokens_b, offsets_b = cols.segments[1]
    coded = codes >= 0
    segment_b = (np.insert(tokens_b, offsets_b[:-1][coded], codes[coded]),
                 offsets_b + _offsets(coded))
    prov = dict(dataset.provenance)
    prov["injection"] = {"m": m, "rho": rho, "seed": seed}
    return Dataset(Columns(cols.ids, cols.labels, tags, codes, (cols.segments[0], segment_b)),
                   dataset.num_labels, dataset.vocab_size, prov)


def make_eval_suite(config: SynthConfig) -> dict:
    """Three test sets: original (no bias tokens), fully biased, fully anti-biased."""
    return {
        split: Dataset(
            _draw_examples(config, f"eval_{split}", config.test_size, split),
            config.num_labels,
            config.vocab_size,
            provenance={"config": asdict(config), "split": f"eval_{split}"},
        )
        for split in ("original", "biased", "anti_biased")
    }


def save_dataset(dataset: Dataset, path):
    """JSONL: header line with metadata, then one object per example, as
    json.dumps(example._asdict(), sort_keys=True) writes it. The lines are
    formatted from the columns, _BLOCK rows at a time."""
    cfg = dataset.provenance.get("config", {})
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "num_labels": dataset.num_labels,
            "vocab_size": dataset.vocab_size,
            "config_digest": config_digest(cfg) if cfg else "",
            "provenance": dataset.provenance,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        cols = dataset.examples
        for start in range(0, len(cols), _BLOCK):
            stop = min(start + _BLOCK, len(cols))
            (ta, oa), (tb, ob) = ((list(map(str, t[o[start]:o[stop]].tolist())),
                                   (o[start:stop + 1] - o[start]).tolist()) for t, o in cols.segments)
            fh.writelines(
                f'{{"bias_tag": "{BIAS_TAGS[tag]}", "bias_token": {"null" if token < 0 else token}, '
                f'"id": {ex_id}, "label": {label}, "segment_a": [{", ".join(ta[a0:a1])}], '
                f'"segment_b": [{", ".join(tb[b0:b1])}]}}\n'
                for ex_id, label, tag, token, a0, a1, b0, b1 in zip(
                    cols.ids[start:stop].tolist(), cols.labels[start:stop].tolist(),
                    cols.tags[start:stop].tolist(), cols.bias_tokens[start:stop].tolist(),
                    oa, oa[1:], ob, ob[1:]))


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
    if vocab > 2**63:
        raise DataError(f"{path}: header 'vocab_size' must be at most 2**63, so that tokens "
                        f"fit int64, got {vocab}")
    K, malformed = header["num_labels"], None
    columns = lines, ids, seg_a, seg_b, labels, tags, tokens = [[] for _ in range(7)]
    try:
        for lineno, rec in records:
            a, b = rec["segment_a"], rec["segment_b"]
            if type(a) is not list or type(b) is not list:
                raise TypeError(f"segment_a and segment_b must be lists, got {a!r:.30}, {b!r:.30}")
            # every field is looked up before any column grows
            for column, value in zip(columns, (lineno, rec["id"], a, b, rec["label"],
                                               rec["bias_tag"], rec["bias_token"])):
                column.append(value)
    except (KeyError, TypeError) as e:
        malformed = DataError(f"{path}:{lineno}: malformed example: {e!r}")
    except DataError as e:  # a line read_json_lines refuses
        malformed = e
    # the lines before a malformed one are checked as a whole, each rule on
    # every line; the first line that breaks one reports the first it breaks
    tag_col = np.array([BIAS_TAGS.index(t) if type(t) is str and t in BIAS_TAGS else -1
                        for t in tags], np.int8)
    (label_col, label_ok), (id_col, id_ok), (token_col, token_ok) = (
        _int64s(labels, 0, K), _int64s(ids, -2**63, 2**63), _int64s(tokens, 0, vocab))
    segments, bad_tokens = [], []
    for segs in (seg_a, seg_b):
        toks, ok = _int64s(list(chain.from_iterable(segs)), 0, vocab)
        segments.append((toks, _offsets(list(map(len, segs)))))
        bad_tokens.append(np.diff(_offsets(~ok)[segments[-1][1]]) > 0)
    repeated = np.ones(len(ids), bool)
    repeated[np.unique(id_col, return_index=True)[1]] = False
    none = np.array([t is None for t in tokens], bool)
    (toks_b, offsets_b), lengths_b = segments[1], np.diff(segments[1][1])
    checks = [
        (tag_col < 0, "unknown bias_tag {tag!r}"),
        (~label_ok, "label {label!r} outside [0, {K})"),
        (bad_tokens[0], "tokens must be integers in [0, {V}), got {a}"),
        (bad_tokens[1], "tokens must be integers in [0, {V}), got {b}"),
        (np.array([type(i) is not int for i in ids], bool) | repeated,
         "id must be an integer not seen before, got {id!r}"),
        (~id_ok, "id {id} outside the int64 range [-2**63, 2**63)"),
        ((tag_col == 0) != none, "bias_tag {tag!r} disagrees with bias_token {token!r}"),
        (~none & ~token_ok, "bias_token {token!r} outside [0, {V})"),
        # the rules inject_bias and the eval suite's biased splits follow
        (~none & ((lengths_b == 0) | (np.append(toks_b, -1)[offsets_b[:-1]] != token_col)),
         "bias_token {token} is not the first token of segment_b {b}"),
        (~none & ((token_col == label_col) != (tag_col == BIAS_TAGS.index("biased"))),
         "a {tag} example's bias_token must {must} its label {label}, got {token}"),
    ]
    failing = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(checks) if mask.any()]
    if failing:
        i, k = min(failing)
        raise DataError(f"{path}:{lines[i]}: " + checks[k][1].format(
            tag=tags[i], label=labels[i], a=seg_a[i], b=seg_b[i], id=ids[i],
            token=tokens[i], K=K, V=vocab, must="equal" if tags[i] == "biased" else "differ from"))
    if malformed:
        raise malformed
    columns = Columns(id_col, label_col, tag_col, np.where(none, -1, token_col), tuple(segments))
    return Dataset(columns, K, vocab, header.get("provenance", {}))


def _int64s(values, lo: int, hi: int):
    """(column, ok): values as an int64 array, and where they are integers
    in [lo, hi), a range within int64; the column reads 0 elsewhere."""
    if set(map(type, values)) <= {int}:  # the common case: range-check in numpy
        try:
            column = np.array(values, np.int64)
        except OverflowError:  # an integer past int64
            pass
        else:
            ok = (lo <= column) & (column <= hi - 1)
            return np.where(ok, column, 0), ok
    ok = np.fromiter((type(v) is int and lo <= v < hi for v in values), bool, len(values))
    return np.array([v if k else 0 for v, k in zip(values, ok)], np.int64), ok
