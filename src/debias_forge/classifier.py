"""Small feed-forward classifier: hashing featurizer, forward pass, analytic
gradients with a finite-difference check, SGD/Adam updates, and the
resumable minibatch loop that trains both the shallow and the main model.

Feature space layout for dimension D over vocabulary V (requires
2V < D < 2V + 2**32, since the pair hash is 32 bits wide):
    [0, V)      bag of tokens in segment_a
    [V, 2V)     bag of tokens in segment_b (the bias token, when present,
                therefore owns a dedicated dimension)
    [2V, D)     hashed ordered (a-token, b-token) co-occurrence counts

A pair (a, b) lands at 2V + ((a * 1000003 + b) * 2654435761 mod 2**32) mod
(D - 2V). Tokens must lie in [0, V); matrix() raises DataError otherwise.
matrix() builds the CSR matrix with numpy in blocks of _BLOCK_ROWS rows, which
bounds its scratch memory, and computes the pair hash in wrapping uint32
arithmetic, which equals the formula for any vocabulary.

The model's input is a CSR matrix or a batch's (data, indices, indptr, shape),
multiplied by the scipy kernels `X @ W` calls. loss_and_grad computes W1's
gradient on the feature rows the batch touches alone; opt_step adds it there,
in one pass over the params' one buffer that skips any bias correction rounded
to 1.0 (x / 1.0 == x). Params and Adam's state equal the dense update's bit for bit.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import ConfigError, DataError, NumericError, SchemaError, open_text
from .rng import substream
from .synthgen import _BLOCK, Columns, ragged_rows

LOG_EPS = 1e-12
# rows featurized per numpy block in Featurizer.matrix
_BLOCK_ROWS = 512
_HASH_MUL_A = np.uint32(1_000_003)
_HASH_MUL = np.uint32(2_654_435_761)
# the most first-layer weights, feature_dim * hidden, that a run may train:
# W1 and each of its Adam moments take 32 MB at the cap, its checkpoint ~100 MB
MAX_W1_WEIGHTS = 2**22
# the most hidden units: scoring builds one (n, hidden) float64 array, 164 MB for the
# default 20k training set at the cap
MAX_HIDDEN = 1024


# ---------------------------------------------------------------------------
# featurization

@dataclass(frozen=True)
class Featurizer:
    vocab_size: int
    dim: int

    def __post_init__(self):
        low = 2 * self.vocab_size
        if not low < self.dim < low + 2**32:
            raise ConfigError(
                f"feature dim {self.dim} must lie in ({low}, {low + 2**32}): above "
                f"2*vocab_size to leave room for pair hashes, within 2**32 of it for their hash"
            )

    def matrix(self, examples) -> sp.csr_matrix:
        """The (n, dim) CSR matrix of feature counts, one row per example
        (Columns, or a list of Examples). Each block of rows is written into
        arrays of the final dtypes, with room for every feature of every row,
        which are then trimmed in place to the summed counts."""
        cols = Columns.of(examples)
        n, (len_a, len_b) = len(cols), (np.diff(offsets) for _, offsets in cols.segments)
        room = int((len_a + len_b + len_a * len_b).sum())
        index = np.int32 if max(n, self.dim, room) < 2**31 else np.int64
        data, indices, indptr = np.empty(room), np.empty(room, index), np.zeros(n + 1, index)
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            at = indptr[start]
            ends = self._block(cols, start, stop, data[at:], indices[at:])
            indptr[start + 1:stop + 1] = at + ends
        data.resize(indptr[-1], refcheck=False)  # in place: nothing else holds them
        indices.resize(indptr[-1], refcheck=False)
        return sp.csr_matrix((data, indices, indptr), shape=(n, self.dim))

    def _block(self, cols, start: int, stop: int, data, indices):
        """Write the entries of rows start:stop of matrix() to the heads of
        data and indices, per row sorted feature dims with summed counts;
        return each row's end among them."""
        n, V, dim = stop - start, self.vocab_size, self.dim
        (tok_a, len_a), (tok_b, len_b) = (
            (tokens[offsets[start]:offsets[stop]], np.diff(offsets[start:stop + 1]))
            for tokens, offsets in cols.segments)
        toks = np.concatenate([tok_a, tok_b])
        if toks.size and (toks.min() < 0 or toks.max() >= V):
            row, tok = next((i, t) for i, ex in enumerate(cols[start:stop])
                            for t in ex.segment_a + ex.segment_b if not 0 <= t < V)
            raise DataError(f"example {start + row}: token {tok} outside [0, {V})")

        rows = np.arange(n, dtype=np.int64)
        # pairs in row-major (a, b) order: a-token i of a row meets each b-token
        n_pairs = len_a * len_b
        pair_row = np.repeat(rows, n_pairs)
        pair_a = np.repeat(tok_a, np.repeat(len_b, len_a))
        pair_start = np.cumsum(n_pairs) - n_pairs
        k = np.arange(pair_row.size, dtype=np.int64) - pair_start[pair_row]
        b_start = np.cumsum(len_b) - len_b
        pair_b = tok_b[b_start[pair_row] + k % len_b[pair_row]]
        h = (pair_a.astype(np.uint32) * _HASH_MUL_A + pair_b.astype(np.uint32)) * _HASH_MUL
        pair_dim = 2 * V + (h % np.uint32(dim - 2 * V)).astype(np.int64)

        keys = np.concatenate([
            np.repeat(rows, len_a) * dim + tok_a,
            np.repeat(rows, len_b) * dim + V + tok_b,
            pair_row * dim + pair_dim,
        ])
        uniq, counts = np.unique(keys, return_counts=True)
        data[:uniq.size], indices[:uniq.size] = counts, uniq % dim
        return np.cumsum(np.bincount(uniq // dim, minlength=n))


# ---------------------------------------------------------------------------
# parameters

def _views(flat, shapes):
    """Views of the flat buffer, one of each shape, in turn."""
    ends = np.cumsum([np.prod(s, dtype=int) for s in shapes])
    return [flat[end - np.prod(s, dtype=int):end].reshape(s) for s, end in zip(shapes, ends)]


@dataclass
class ModelParams:
    """W1, b1, W2 and b2: views of one buffer `flat`, in turn; construction copies them in."""
    W1: np.ndarray  # (D, H)
    b1: np.ndarray  # (H,)
    W2: np.ndarray  # (H, K)
    b2: np.ndarray  # (K,)

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=np.float64) for a in (self.W1, self.b1, self.W2, self.b2)]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self.W1, self.b1, self.W2, self.b2 = _views(self.flat, [a.shape for a in arrays])

    @property
    def shape(self):
        D, H = self.W1.shape
        return D, H, self.W2.shape[1]

    def copy(self):
        return _params_of(self.flat.copy(), *self.shape)

    def arrays(self):
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


def _params_of(flat, D: int, H: int, K: int) -> ModelParams:
    """The ModelParams whose buffer is flat itself, not a copy."""
    params = object.__new__(ModelParams)
    params.flat = flat
    params.W1, params.b1, params.W2, params.b2 = _views(flat, [(D, H), (H,), (H, K), (K,)])
    return params


def init_params(D: int, H: int, K: int, rng: np.random.Generator) -> ModelParams:
    """Symmetric uniform init scaled by fan-in (biases included, which also
    keeps ReLU pre-activations off the kink for degenerate inputs). The draws
    follow the buffer: freed below it, W1's would leave a heap hole too small to reuse."""
    s1, s2 = 1.0 / np.sqrt(D), 1.0 / np.sqrt(H)
    params = _params_of(np.empty(D * H + H + H * K + K), D, H, K)
    for arr, s in zip(params.arrays().values(), (s1, s1, s2, s2)):
        arr[...] = rng.uniform(-s, s, size=arr.shape)
    return params


# ---------------------------------------------------------------------------
# forward / loss / gradients

def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _csr(X):
    """(data, indices, indptr, (n, D)) of a CSR matrix, or of a batch given as that tuple."""
    return X if isinstance(X, tuple) else (X.data, X.indices, X.indptr, X.shape)


def _logits(params: ModelParams, X, check_hidden=False):
    """(hidden activations, logits), the hidden layer built in one (n, H)
    array by the kernel of `X @ W1`; with check_hidden, NumericError on a
    non-finite pre-activation, checked before the ReLU maps -inf to 0."""
    data, indices, indptr, (n, D) = _csr(X)
    h = np.zeros((n, params.W1.shape[1]))
    _sparsetools.csr_matvecs(n, D, h.shape[1], indptr, indices, data, params.W1.ravel(), h.ravel())
    h += params.b1
    # min and max carry any NaN or inf, without an (n, H) mask; a 0-row h has neither
    if check_hidden and h.size and not (np.isfinite(h.min()) and np.isfinite(h.max())):
        raise NumericError("non-finite activations in hidden layer")
    np.maximum(h, 0.0, out=h)
    return h, h @ params.W2 + params.b2


def forward(params: ModelParams, X) -> np.ndarray:
    """Softmax probabilities, shape (n, K); max-subtraction stabilized."""
    _, logits = _logits(params, X, check_hidden=True)
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in output layer")
    return _softmax(logits)


@dataclass
class Gradients:
    """Gradients of the mean loss. The W1 gradient is row-sparse: W1 holds
    the rows W1_rows (sorted) of the (D, H) gradient, whose other rows are
    exactly +0.0."""
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W1_rows: np.ndarray
    D: int
    clamped: int = 0

    def arrays(self):
        """Dense gradients by name."""
        W1 = np.zeros((self.D, self.W1.shape[1]))
        W1[self.W1_rows] = self.W1
        return {"W1": W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


def _touched_rows_product(X, dz1: np.ndarray):
    """(rows, X.T @ dz1 on rows): the sorted feature rows X touches and the
    product on them alone. X.T with its rows renumbered 0..r-1 is summed by
    the same kernel in the same order (batch rows in turn) as the dense
    product, so each row equals the dense product's bit for bit."""
    data, indices, indptr, (n, D) = _csr(X)
    cols = indices.astype(np.intp)
    touched = np.zeros(D, dtype=bool)
    touched[cols] = True
    rows = np.flatnonzero(touched)
    rank = np.empty(D, dtype=indices.dtype)
    rank[rows] = np.arange(rows.size, dtype=rank.dtype)
    out = np.zeros((rows.size, dz1.shape[1]))
    _sparsetools.csc_matvecs(rows.size, n, out.shape[1], indptr, rank[cols], data,
                             dz1.ravel(), out.ravel())
    return rows, out


def loss_and_grad(params: ModelParams, X, targets, weights, logit_offset=None):
    """Weighted soft-target cross-entropy over a CSR batch X (see _csr).

    loss_i = -weights[i] * sum_j targets[i,j] * log p[i,j], with
    p = softmax(logits + logit_offset). Returns (per-example losses,
    gradients of mean(loss_i)). The optional per-example logit_offset is how
    a fixed log-probability expert is folded into the same gradient path.
    The W1 gradient covers only the rows X touches.
    """
    n, D = _csr(X)[3]
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    weights = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if np.any(weights < 0):
        raise DataError("negative example weight")
    a1, logits = _logits(params, X)
    if logit_offset is not None:
        logits = logits + np.atleast_2d(np.asarray(logit_offset, dtype=np.float64))
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in output layer")
    p = _softmax(logits)

    logp = np.log(np.maximum(p, LOG_EPS))
    clamped = int(np.count_nonzero((p < LOG_EPS) & (targets > 0)))
    losses = -weights * np.einsum("ij,ij->i", targets, logp)

    dlogits = (p - targets) * weights[:, None] / n
    dW2 = a1.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dz1 = (dlogits @ params.W2.T) * (a1 > 0)  # a1 > 0 just where the pre-activation is
    rows, dW1 = _touched_rows_product(X, dz1)
    db1 = dz1.sum(axis=0)
    return losses, Gradients(dW1, db1, dW2, db2, rows, D, clamped)


def grad_check(params: ModelParams, X, targets, weights, eps: float = 1e-5,
               rng: np.random.Generator | None = None, coords_per_layer: int = 50,
               logit_offset=None) -> float:
    """Central finite differences on a random coordinate subsample per layer;
    returns the worst relative error."""
    if eps <= 0:
        raise ConfigError("eps must be positive")
    rng = rng or np.random.default_rng(0)

    def mean_loss(p):
        losses, _ = loss_and_grad(p, X, targets, weights, logit_offset)
        return float(losses.mean())

    _, grads = loss_and_grad(params, X, targets, weights, logit_offset)
    worst = 0.0
    for name, arr in params.arrays().items():
        flat_g = grads.arrays()[name].ravel()
        size = arr.size
        idxs = np.arange(size) if size <= coords_per_layer else rng.choice(size, coords_per_layer, replace=False)
        for i in idxs:
            orig = arr.flat[i]
            arr.flat[i] = orig + eps
            lp = mean_loss(params)
            arr.flat[i] = orig - eps
            lm = mean_loss(params)
            arr.flat[i] = orig
            num = (lp - lm) / (2 * eps)
            ana = flat_g[i]
            denom = max(abs(num) + abs(ana), 1e-8)
            worst = max(worst, abs(num - ana) / denom)
    return worst


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class OptState:
    learning_rate: float
    mode: str = "sgd"  # "sgd" | "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)  # adam's moments by name: views of flat[0] and flat[1]
    v: dict = field(default_factory=dict)
    flat: tuple = field(default=(), repr=False)  # adam's m, v and 2 work buffers, like params.flat

    def __post_init__(self):
        if self.mode not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer mode {self.mode!r}")
        # opt_step relies on m*beta1 never rounding a non-zero m to zero
        if not 0.5 < self.beta1 < 1.0:
            raise ConfigError(f"beta1 must lie in (0.5, 1), got {self.beta1}")


def opt_step(params: ModelParams, grads: Gradients, state: OptState):
    """One in-place update; returns (params, state). Aborts on non-finite grads.

    Each pass runs once over params.flat, or Adam's buffers laid out like it;
    W1's gradient terms go to the rows the batch touched alone. This equals
    the dense update bit for bit. Elsewhere the dense gradient is +0.0, and
    adding +0.0 changes no value but -0.0. Neither moment is ever -0.0: both
    start at +0.0, v never goes negative, and m*beta1 with beta1 > 0.5 rounds
    no non-zero m to zero. Nor does skipping a bias correction 1 - beta**t
    that rounds to 1.0 (from t = 356 at beta 0.9) change a bit: x / 1.0 == x.
    """
    g_tail = np.concatenate([grads.b1, grads.W2.ravel(), grads.b2])  # laid out like flat[tail:]
    if not (np.isfinite(grads.W1).all() and np.isfinite(g_tail).all()):
        name = next(n for n, g in grads.arrays().items() if not np.isfinite(g).all())
        raise NumericError(f"non-finite gradient in {name}; step aborted")
    state.step += 1
    lr, rows, tail = state.learning_rate, grads.W1_rows, params.W1.size
    if state.mode == "sgd":
        params.W1[rows] -= lr * grads.W1
        params.flat[tail:] -= lr * g_tail
        return params, state
    if not state.flat:
        state.flat = tuple(np.zeros_like(params.flat) for _ in range(4))
        state.m, state.v = (_params_of(buf, *params.shape).arrays() for buf in state.flat[:2])
    m, v, s1, s2 = state.flat
    # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    # p -= lr * (m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps), computed in place
    # in that order: bit-identical results, and no parameter-sized
    # temporaries, which page-fault on every step whenever malloc serves
    # them with mmap
    b1, b2, t = state.beta1, state.beta2, state.step
    m *= b1
    v *= b2
    for g, at, m_at, v_at in ((grads.W1, rows, state.m["W1"], state.v["W1"]),
                              (g_tail, slice(None), m[tail:], v[tail:])):
        gs = s1[:g.size].reshape(g.shape)  # the terms of g's rows, in s1's head
        np.multiply(g, 1 - b1, out=gs)
        m_at[at] += gs
        np.multiply(g, 1 - b2, out=gs)
        gs *= g
        v_at[at] += gs
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t  # a correction of 1.0 divides by nothing
    np.multiply(m if c1 == 1.0 else np.divide(m, c1, out=s1), lr, out=s1)
    np.sqrt(v if c2 == 1.0 else np.divide(v, c2, out=s2), out=s2)
    s2 += state.eps
    s1 /= s2
    params.flat -= s1
    return params, state


def _opt_state(cfg):
    """The OptState a run of cfg trains with; ConfigError for an unknown optimizer."""
    return OptState(learning_rate=cfg.learning_rate, mode=cfg.optimizer, beta2=cfg.adam_beta2)


def check_run_config(cfg):
    """ConfigError unless the hyperparameters of cfg, a TrainConfig or a
    ShallowConfig, are ones a MinibatchRun can train with."""
    for name in ("epochs", "batch_size", "hidden"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if not cfg.learning_rate > 0:
        raise ConfigError(f"learning_rate must be > 0, got {cfg.learning_rate}")
    if not 0.0 <= cfg.adam_beta2 < 1.0:
        raise ConfigError(f"adam_beta2 must lie in [0, 1), got {cfg.adam_beta2}")
    if cfg.feature_dim * cfg.hidden > MAX_W1_WEIGHTS:
        raise ConfigError(f"feature_dim * hidden = {cfg.feature_dim * cfg.hidden} is past "
                          f"MAX_W1_WEIGHTS = {MAX_W1_WEIGHTS}")
    if cfg.hidden > MAX_HIDDEN:
        raise ConfigError(f"hidden {cfg.hidden} is past MAX_HIDDEN = {MAX_HIDDEN}")
    _opt_state(cfg)


class MinibatchRun:
    """A resumable minibatch training run over the rows of X: params from
    init_params on substream(seed, "init"), an OptState, the
    substream(seed, "shuffle") stream that orders each epoch, and the epochs
    trained. Continued from e1 to e2 epochs, it equals a fresh e2-epoch run
    bit for bit. cfg is a TrainConfig or a ShallowConfig."""

    def __init__(self, X, num_labels: int, cfg):
        self.X, self.batch_size = X, cfg.batch_size
        self.params = init_params(X.shape[1], cfg.hidden, num_labels, substream(cfg.seed, "init"))
        self.state = _opt_state(cfg)
        self.shuffle_rng = substream(cfg.seed, "shuffle")
        self.epochs = 0

    def batches(self, epochs: int):
        """Row indices of each minibatch from the current epoch count up to
        `epochs`; the caller takes one step() on each."""
        if self.epochs:
            # opt_step updates in place: go on with a copy, so that every
            # model taken from this run before keeps its own params
            self.params = self.params.copy()
        n = self.X.shape[0]
        while self.epochs < epochs:
            order = self.shuffle_rng.permutation(n)
            for start in range(0, n, self.batch_size):
                yield order[start:start + self.batch_size]
            self.epochs += 1

    def step(self, idx, targets, weights, logit_offset=None):
        """One optimizer step on rows idx; returns (per-example losses, gradients)."""
        at, indptr = ragged_rows(self.X.indptr, idx)  # X[idx], without scipy's fancy indexing
        X = (self.X.data[at], self.X.indices[at], indptr, (len(idx), self.X.shape[1]))
        losses, grads = loss_and_grad(self.params, X, targets, weights, logit_offset)
        if not np.all(np.isfinite(losses)):
            raise NumericError(f"non-finite loss at step {self.state.step}")
        self.params, self.state = opt_step(self.params, grads, self.state)
        return losses, grads


# ---------------------------------------------------------------------------
# model wrapper and checkpoint I/O

def check_model_data(ds, num_labels: int, vocab_size: int):
    """The model-data rule: a model of K labels over a vocabulary of V scores
    only a Dataset of K labels over V; SchemaError for any other."""
    if (ds.num_labels, ds.vocab_size) != (num_labels, vocab_size):
        raise SchemaError(f"model-data mismatch: the model has K={num_labels} over vocabulary "
                          f"{vocab_size}, the data K={ds.num_labels} over {ds.vocab_size}")


@dataclass
class Model:
    params: ModelParams
    featurizer: Featurizer
    num_labels: int
    meta: dict = field(default_factory=dict)

    def predict_proba(self, ds) -> np.ndarray:
        """Class probabilities of a Dataset's examples, through its kept matrix."""
        check_model_data(ds, self.num_labels, self.featurizer.vocab_size)
        return forward(self.params, ds.matrix(self.featurizer))

    def predict(self, ds) -> np.ndarray:
        return np.argmax(self.predict_proba(ds), axis=1)


def save_checkpoint(model: Model, path, step: int = 0, config_digest: str = ""):
    """Write the bytes of json.dumps({"meta": ..., "W1": ..., "b1": ...,
    "W2": ..., "b2": ...}): the meta object, then W1 in blocks of whole rows
    of about _BLOCK weights, so that neither W1 as lists nor the whole text
    is built at once."""
    D, H, K = model.params.shape
    meta = {
        "D": D,
        "H": H,
        "K": K,
        "step": step,
        "config_digest": config_digest,
        "vocab_size": model.featurizer.vocab_size,
        **model.meta,
    }
    p = model.params
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta})[:-1] + ', "W1": [')
        rows = max(1, _BLOCK // max(H, 1))
        for start in range(0, D, rows):
            fh.write((", " if start else "") + json.dumps(p.W1[start:start + rows].tolist())[1:-1])
        fh.write("], " + json.dumps({"b1": p.b1.tolist(), "W2": p.W2.tolist(),
                                     "b2": p.b2.tolist()})[1:])


def _has_shape(values, shape) -> bool:
    """Whether values is a list of shape[0] items, each a list of shape[1] for a 2-D shape."""
    if type(values) is not list or len(values) != shape[0]:
        return False
    return len(shape) == 1 or all(type(row) is list and len(row) == shape[1] for row in values)


def _params_of_lists(lists, D, H, K) -> ModelParams:
    """The ModelParams of a checkpoint's W1, b1, W2 and b2 lists. Lists of
    meta's shapes (D, H and K integers >= 1) fill one buffer in place, with
    no array of their own; any others, or values numpy cannot take, go to
    ModelParams, whose conversion and shapes the errors name."""
    shapes = [(D, H), (H,), (H, K), (K,)]
    if all(type(n) is int and n >= 1 for n in (D, H, K)) and all(map(_has_shape, lists, shapes)):
        params = _params_of(np.empty(D * H + H + H * K + K), D, H, K)
        try:
            for arr, values in zip(params.arrays().values(), lists):
                arr[...] = values  # numpy writes a list of arr's shape straight into arr
            return params
        except (TypeError, ValueError):
            pass
    return ModelParams(*lists)  # lists to float64


def load_checkpoint(path) -> Model:
    try:
        with open_text(path) as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise DataError(f"{path}: parse error: {e}") from e
    try:
        meta = obj["meta"]
        D, H, K, vocab_size = meta["D"], meta["H"], meta["K"], meta["vocab_size"]
        params = _params_of_lists([obj["W1"], obj["b1"], obj["W2"], obj["b2"]], D, H, K)
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # an int past a double
        raise SchemaError(f"{path}: malformed checkpoint: {e}") from e
    if not all(type(v) is int for v in (D, H, K, vocab_size)):
        raise SchemaError(f"{path}: meta D, H, K and vocab_size must be integers, "
                          f"got {[D, H, K, vocab_size]!r}")
    if params.W1.shape != (D, H) or params.b1.shape != (H,) \
            or params.W2.shape != (H, K) or params.b2.shape != (K,):
        raise SchemaError(
            f"{path}: shape mismatch: meta says D={D} H={H} K={K}, arrays are "
            f"{params.W1.shape}/{params.b1.shape}/{params.W2.shape}/{params.b2.shape}"
        )
    for name in ("W1", "b1", "W2", "b2"):
        if not np.isfinite(getattr(params, name)).all():
            raise SchemaError(f"{path}: non-finite value in {name}")
    try:
        feat = Featurizer(vocab_size=vocab_size, dim=D)
    except ConfigError as e:  # a stored D that no config could have made
        raise SchemaError(f"{path}: meta D and vocab_size: {e}") from e
    extra = {k: v for k, v in meta.items()
             if k not in ("D", "H", "K", "step", "config_digest", "vocab_size")}
    return Model(params=params, featurizer=feat, num_labels=K, meta=extra)
