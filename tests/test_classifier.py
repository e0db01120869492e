import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from debias_forge import classifier
from debias_forge.classifier import (
    Featurizer, Model, ModelParams, OptState, forward, grad_check, init_params,
    load_checkpoint, loss_and_grad, opt_step, save_checkpoint,
)
from debias_forge.errors import ConfigError, DataError, NumericError, SchemaError
from debias_forge.objectives import scale_teacher
from debias_forge.synthgen import Dataset, Example, SynthConfig, gen_dataset, inject_bias
from debias_forge.trainer import TrainConfig


V, D, H, K = 20, 48, 8, 3


def _example(seg_a, seg_b):
    return Example(id=0, segment_a=tuple(seg_a), segment_b=tuple(seg_b), label=0)


def _random_setup(rng, n=6, soft=False, offset=False):
    params = init_params(D, H, K, rng)
    X = rng.normal(size=(n, D)) * (rng.random((n, D)) < 0.3)
    if soft:
        raw = rng.random((n, K)) + 0.05
        targets = scale_teacher(raw / raw.sum(axis=1, keepdims=True), rng.random())
    else:
        labels = rng.integers(0, K, size=n)
        targets = np.zeros((n, K))
        targets[np.arange(n), labels] = 1.0
    weights = rng.random(n) + 0.1
    logit_offset = rng.normal(size=(n, K)) if offset else None
    return params, sp.csr_matrix(X), targets, weights, logit_offset


def _pair_dim(f, a: int, b: int) -> int:
    n_hash = f.dim - 2 * f.vocab_size
    h = ((a * 1_000_003 + b) * 2_654_435_761) % (1 << 32)
    return 2 * f.vocab_size + h % n_hash


def _featurize(f, example) -> dict:
    """The per-example reference of Featurizer.matrix: a sparse map from
    feature dimension to count."""
    feats = {}
    for t in example.segment_a:
        feats[t] = feats.get(t, 0.0) + 1.0
    for t in example.segment_b:
        d = f.vocab_size + t
        feats[d] = feats.get(d, 0.0) + 1.0
    for a in example.segment_a:
        for b in example.segment_b:
            d = _pair_dim(f, a, b)
            feats[d] = feats.get(d, 0.0) + 1.0
    return feats


def test_featurizer_segment_layout():
    f = Featurizer(vocab_size=V, dim=D)
    feats = _featurize(f, _example([3, 3], [5]))
    assert feats[3] == 2.0            # segment_a token counts
    assert feats[V + 5] == 1.0        # segment_b tokens live in a shifted block
    pair_dims = [d for d in feats if d >= 2 * V]
    assert pair_dims and all(2 * V <= d < D for d in pair_dims)


def _stacked_featurize(f, examples):
    """The per-example reference: _featurize() rows stacked into CSR."""
    data, indices, indptr = [], [], [0]
    for ex in examples:
        feats = _featurize(f, ex)
        for d in sorted(feats):
            indices.append(d)
            data.append(feats[d])
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(examples), f.dim),
    )


def test_featurizer_deterministic_and_matrix_agrees(tiny_train):
    big_v = 50_000  # pair-hash products exceed int64 from V of about 3400
    rng = np.random.default_rng(7)
    many = [_example(rng.integers(0, V, 3).tolist(), rng.integers(0, V, 2).tolist())
            for _ in range(2 * classifier._BLOCK_ROWS + 5)]
    cases = [
        (Featurizer(tiny_train.vocab_size, 130), tiny_train.examples),
        (Featurizer(V, D), []),
        (Featurizer(V, D), [_example([1, 2], []), _example([], [3]), _example([], [])]),
        (Featurizer(V, D), [_example([1, 2], [3]), _example([4], [5, 6])]),
        (Featurizer(V, D), [_example([3, 3, 3], [5, 5]), _example([7, 7], [7, 7])]),
        (Featurizer(V, D), many),
        (Featurizer(big_v, 2 * big_v + 1009),
         [_example([big_v - 1, 4321, 0], [big_v - 2, 3999]), _example([49_000], [48_999])]),
    ]
    for f, exs in cases:
        got, want = f.matrix(exs), _stacked_featurize(f, exs)
        assert got.shape == want.shape == (len(exs), f.dim)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert f.matrix(exs).data.tobytes() == got.data.tobytes()


@pytest.mark.parametrize("bad", [-1, V, 10**6])
def test_matrix_rejects_out_of_range_tokens(bad):
    f = Featurizer(vocab_size=V, dim=D)
    with pytest.raises(DataError, match="example 1"):
        f.matrix([_example([1], [2]), _example([3], [bad])])


def test_matrix_peak_allocation_stays_near_its_output():
    """Featurizing a 20k-example set at the default sizes allocates, at its
    peak, at most the output's own bytes on top of them: each block is
    written into the final arrays, not concatenated and copied down."""
    ds = inject_bias(gen_dataset(SynthConfig(seed=3)), m=0.9, rho=0.3, seed=3)
    featurizer = Featurizer(ds.vocab_size, 2064)
    tracemalloc.start()
    try:
        X = featurizer.matrix(ds.examples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    assert peak - nbytes <= nbytes, (peak, nbytes)


def test_minibatch_step_gathers_rows_like_fancy_indexing(monkeypatch):
    rng = np.random.default_rng(5)
    # a third of the rows have no tokens, so no features
    examples = [_example(rng.integers(0, V, k).tolist(), rng.integers(0, V, k).tolist())
                for k in rng.integers(0, 3, 60)]
    X = Featurizer(V, D).matrix(examples)
    run = classifier.MinibatchRun(X, K, TrainConfig(hidden=H))
    batches, loss_and_grad = [], classifier.loss_and_grad

    def recording(params, batch, *args):
        batches.append(batch)
        return loss_and_grad(params, batch, *args)

    monkeypatch.setattr(classifier, "loss_and_grad", recording)
    empty = np.flatnonzero(np.diff(X.indptr) == 0)
    for idx in (rng.permutation(60)[:32], empty, empty[:1], np.arange(60), rng.permutation(60)):
        run.step(idx, np.eye(K)[rng.integers(0, K, idx.size)], np.ones(idx.size))
        (*got, shape), want = batches[-1], X[idx]  # the batch: (data, indices, indptr, shape)
        assert shape == want.shape
        for name, a in zip(("data", "indices", "indptr"), got):
            b = getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_featurizer_rejects_small_dim():
    with pytest.raises(ConfigError):
        Featurizer(vocab_size=V, dim=2 * V)
    # nor one past the 32-bit pair hash, which no config under MAX_W1_WEIGHTS reaches
    with pytest.raises(ConfigError, match=r"2\*\*32"):
        Featurizer(vocab_size=V, dim=2 * V + 2**32)


def test_forward_rows_on_simplex(rng):
    params, X, *_ = _random_setup(rng)
    p = forward(params, X)
    assert p.shape == (6, K)
    assert np.all(p > 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_forward_refuses_a_pre_activation_the_relu_would_hide(rng):
    params, X, *_ = _random_setup(rng)
    params.b1[0] = -np.inf  # the ReLU maps it to 0, so the logits stay finite
    assert np.isfinite(loss_and_grad(params, X, np.eye(K)[[0] * 6], np.ones(6))[0]).all()
    with pytest.raises(NumericError, match="non-finite activations in hidden layer"):
        forward(params, X)


def test_loss_matches_hand_computed_cross_entropy(rng):
    params, X, _, _, _ = _random_setup(rng, n=2)
    p = forward(params, X)
    targets = np.zeros((2, K))
    targets[0, 1] = 1.0
    targets[1, 2] = 1.0
    weights = np.array([1.0, 0.5])
    losses, _ = loss_and_grad(params, X, targets, weights)
    # oracle: weighted negative log of the target coordinate
    assert losses[0] == pytest.approx(-np.log(p[0, 1]), rel=1e-12)
    assert losses[1] == pytest.approx(-0.5 * np.log(p[1, 2]), rel=1e-12)


def test_gradients_match_finite_differences(rng):
    # 20 random instances mixing hard targets, soft targets, and offsets
    for trial in range(20):
        soft = trial % 2 == 1
        offset = trial % 3 == 0
        params, X, targets, weights, logit_offset = _random_setup(
            rng, soft=soft, offset=offset)
        err = grad_check(params, X, targets, weights, eps=1e-5, rng=rng,
                         coords_per_layer=12, logit_offset=logit_offset)
        assert err < 1e-4


def test_zero_weight_examples_contribute_no_gradient(rng):
    params, X, targets, _, _ = _random_setup(rng)
    w = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    _, g_all = loss_and_grad(params, X, targets, w)
    keep = w > 0
    # oracle: drop the zero-weight rows, rescale by the batch-size ratio
    _, g_kept = loss_and_grad(params, X[keep], targets[keep], w[keep])
    ratio = keep.sum() / len(w)
    for name, arr in g_all.arrays().items():
        assert np.allclose(arr, g_kept.arrays()[name] * ratio, atol=1e-12)


def test_negative_weight_rejected(rng):
    params, X, targets, weights, _ = _random_setup(rng)
    weights[0] = -0.5
    with pytest.raises(DataError):
        loss_and_grad(params, X, targets, weights)


def test_sgd_step_matches_manual_update(rng):
    params, X, targets, weights, _ = _random_setup(rng)
    _, grads = loss_and_grad(params, X, targets, weights)
    before = params.copy()
    state = OptState(learning_rate=0.1, mode="sgd")
    params, state = opt_step(params, grads, state)
    for name in ("W1", "b1", "W2", "b2"):
        expect = before.arrays()[name] - 0.1 * grads.arrays()[name]
        assert np.allclose(params.arrays()[name], expect, atol=1e-15)
    assert state.step == 1


def test_adam_step_matches_reference_formula(rng):
    params, X, targets, weights, _ = _random_setup(rng)
    _, grads = loss_and_grad(params, X, targets, weights)
    before = params.copy()
    lr, b1, b2, eps = 2e-3, 0.9, 0.99, 1e-8
    state = OptState(learning_rate=lr, mode="adam", beta2=b2)
    params, _ = opt_step(params, grads, state)
    for name, g in grads.arrays().items():
        m = (1 - b1) * g / (1 - b1)          # bias-corrected first step
        v = (1 - b2) * g * g / (1 - b2)
        expect = before.arrays()[name] - lr * m / (np.sqrt(v) + eps)
        assert np.allclose(params.arrays()[name], expect, atol=1e-12)

    # several steps against the out-of-place update, bit for bit
    ref = {n: a.copy() for n, a in params.arrays().items()}
    ref_m = {n: (1 - b1) * g for n, g in grads.arrays().items()}
    ref_v = {n: (1 - b2) * g * g for n, g in grads.arrays().items()}
    for t in range(2, 6):
        _, grads = loss_and_grad(params, X, targets, weights)
        params, state = opt_step(params, grads, state)
        for name, g in grads.arrays().items():
            ref_m[name] = b1 * ref_m[name] + (1 - b1) * g
            ref_v[name] = b2 * ref_v[name] + (1 - b2) * g * g
            mhat = ref_m[name] / (1 - b1 ** t)
            vhat = ref_v[name] / (1 - b2 ** t)
            ref[name] -= lr * mhat / (np.sqrt(vhat) + eps)
            assert np.array_equal(params.arrays()[name], ref[name]), (t, name)


def _csr_batches(rng, steps, n=5):
    """CSR batches whose feature columns change from step to step: columns
    [0, 8) are never touched, each step draws from its own window of the
    rest, so that rows are touched, left out for a while and touched again."""
    batches = []
    for t in range(steps):
        lo = 8 + (7 * t) % (D - 20)
        dense = np.zeros((n, D))
        cols = rng.integers(lo, lo + 12, size=(n, 3))
        dense[np.arange(n)[:, None], cols] = rng.integers(1, 4, size=(n, 3))
        labels = rng.integers(0, K, size=n)
        targets = np.zeros((n, K))
        targets[np.arange(n), labels] = 1.0
        batches.append((sp.csr_matrix(dense), targets, rng.random(n) + 0.1))
    return batches


def test_touched_rows_product_equals_dense_product(rng):
    for n in (1, 4, 32):
        dense = rng.normal(size=(n, D)) * (rng.random((n, D)) < 0.2)
        X = sp.csr_matrix(dense)
        dz1 = rng.normal(size=(n, H))
        rows, prod = classifier._touched_rows_product(X, dz1)
        full = np.asarray(X.T @ dz1)
        assert np.array_equal(rows, np.flatnonzero(dense.any(axis=0)))
        assert np.array_equal(prod, full[rows])
        assert not full[np.setdiff1d(np.arange(D), rows)].any()


def _check_steps_against_dense_formula(rng, mode, beta2, first_step=1):
    """12 steps from step number first_step, each against the dense
    out-of-place update that always divides by both bias corrections."""
    params = init_params(D, H, K, rng)
    state = OptState(learning_rate=3e-2, mode=mode, beta2=beta2, step=first_step - 1)
    b1, eps, lr = state.beta1, state.eps, state.learning_rate
    ref = {n: a.copy() for n, a in params.arrays().items()}
    ref_m = {n: np.zeros_like(a) for n, a in ref.items()}
    ref_v = {n: np.zeros_like(a) for n, a in ref.items()}
    seen, left_out = np.zeros(D, dtype=bool), np.zeros(D, dtype=bool)
    for t, (X, targets, weights) in enumerate(_csr_batches(rng, 12), start=first_step):
        _, grads = loss_and_grad(params, X, targets, weights)
        assert grads.W1.shape[0] < D
        touched = np.zeros(D, dtype=bool)
        touched[grads.W1_rows] = True
        left_out |= seen & ~touched
        seen |= touched
        params, state = opt_step(params, grads, state)
        for name, g in grads.arrays().items():
            if mode == "sgd":
                ref[name] -= lr * g
            else:
                ref_m[name] = b1 * ref_m[name] + (1 - b1) * g
                ref_v[name] = beta2 * ref_v[name] + (1 - beta2) * g * g
                mhat = ref_m[name] / (1 - b1 ** t)
                vhat = ref_v[name] / (1 - beta2 ** t)
                ref[name] -= lr * mhat / (np.sqrt(vhat) + eps)
                assert np.array_equal(state.m[name], ref_m[name]), (t, name)
                assert np.array_equal(state.v[name], ref_v[name]), (t, name)
            assert np.array_equal(params.arrays()[name], ref[name]), (t, name)
    assert not seen[:8].any() and seen[8:].sum() > 20 and left_out.sum() > 10


@pytest.mark.parametrize("case", ["one_row", "featureless_rows", "int64", "hidden_1", "wide"])
def test_kernel_products_equal_scipys_operators(rng, case):
    n, hidden = {"one_row": (1, H), "hidden_1": (6, 1), "wide": (64, 32)}.get(case, (6, H))
    dense = rng.integers(0, 3, size=(n, D)) * (rng.random((n, D)) < 0.3)
    if case == "featureless_rows":
        dense[[0, 3]] = 0.0
    X = sp.csr_matrix(dense.astype(np.float64))
    if case == "int64":  # scipy builds int32 ones where they fit
        X.indices, X.indptr = X.indices.astype(np.int64), X.indptr.astype(np.int64)
    params = init_params(D, hidden, K, rng)
    params.W1[:] = np.abs(params.W1)  # with counts >= 0 and b1 > 0, the ReLU hides nothing
    params.b1[:] = 1.0
    dz1 = rng.normal(size=(n, hidden))
    h_ref = X @ params.W1 + params.b1  # the model's products through scipy's operators
    logits_ref, prod_ref = h_ref @ params.W2 + params.b2, np.asarray(X.T @ dz1)
    for given in (X, (X.data, X.indices, X.indptr, X.shape)):  # a CSR matrix and a batch
        h, logits = classifier._logits(params, given)
        assert np.array_equal(h, h_ref) and np.array_equal(logits, logits_ref)
        rows, prod = classifier._touched_rows_product(given, dz1)
        assert np.array_equal(rows, np.flatnonzero(dense.any(axis=0)))
        assert np.array_equal(prod, prod_ref[rows])


@pytest.mark.parametrize("mode,beta2", [("adam", 0.9), ("adam", 0.999), ("sgd", 0.999)])
def test_row_sparse_step_equals_dense_formula(rng, mode, beta2):
    _check_steps_against_dense_formula(rng, mode, beta2)


@pytest.mark.parametrize("beta2,first_step", [(0.9, 350), (0.999, 350), (0.999, 37406)])
def test_steps_past_a_bias_correction_of_one_equal_dense_formula(rng, beta2, first_step):
    # 1 - 0.9**t rounds to 1.0 from t = 356 on, 1 - 0.999**t from t = 37412:
    # opt_step skips the division there, the dense formula keeps it
    for beta in (0.9, beta2):
        skip_from = 356 if beta == 0.9 else 37412
        assert 1 - beta ** (skip_from - 1) < 1.0 == 1 - beta ** skip_from
    _check_steps_against_dense_formula(rng, "adam", beta2, first_step)


def _assert_one_buffer(flat, arrays):
    """The arrays (W1, b1, W2 and b2, or their moments) are views of the
    flat buffer, in that order, and fill it."""
    assert flat.dtype == np.float64 and flat.flags.c_contiguous and flat.ndim == 1
    at = flat.__array_interface__["data"][0]
    for arr in arrays.values():
        assert arr.base is flat and arr.__array_interface__["data"][0] == at
        at += arr.nbytes
    assert at == flat.__array_interface__["data"][0] + flat.nbytes


def test_params_live_in_one_buffer_however_built(rng, tmp_path):
    arrays = [rng.normal(size=shape) for shape in ((D, H), (H,), (H, K), (K,))]
    built = ModelParams(*arrays)
    arrays[0][0, 0] = 7.0  # construction copies: the caller's arrays stay its own
    assert built.W1[0, 0] != 7.0
    copied = built.copy()
    path = tmp_path / "m.ckpt.json"
    save_checkpoint(Model(built, Featurizer(V, D), K), path)
    for params in (init_params(D, H, K, rng), built, copied, load_checkpoint(path).params):
        _assert_one_buffer(params.flat, params.arrays())
        assert params.shape == (D, H, K)
    assert not np.shares_memory(built.flat, copied.flat)
    assert np.array_equal(built.flat, copied.flat)
    # adam's moments live in buffers laid out like the params
    state = OptState(learning_rate=0.1, mode="adam")
    X, targets, weights = _csr_batches(rng, 1)[0]
    opt_step(built, loss_and_grad(built, X, targets, weights)[1], state)
    for buf, moments in zip(state.flat, (state.m, state.v)):
        _assert_one_buffer(buf, moments)


def test_continued_run_leaves_earlier_params_unchanged(rng):
    X = _csr_batches(rng, 1, n=40)[0][0]
    run = classifier.MinibatchRun(X, K, TrainConfig(hidden=H, feature_dim=D, batch_size=16))
    targets = np.eye(K)[rng.integers(0, K, 40)]
    models = []
    for epochs in (1, 2, 3):
        for idx in run.batches(epochs):
            run.step(idx, targets[idx], np.ones(idx.size))
        models.append((run.params, run.params.flat.copy()))
    for params, flat in models:
        _assert_one_buffer(params.flat, params.arrays())
        assert np.array_equal(params.flat, flat)
    assert not np.shares_memory(models[0][0].flat, models[1][0].flat)


def test_nonfinite_touched_w1_row_aborts_without_update(rng):
    X, targets, weights = _csr_batches(rng, 1)[0]
    for mode in ("sgd", "adam"):
        params = init_params(D, H, K, rng)
        state = OptState(learning_rate=0.1, mode=mode)
        params, state = opt_step(params, loss_and_grad(params, X, targets, weights)[1], state)
        before, m_before = params.copy(), {n: a.copy() for n, a in state.m.items()}
        _, grads = loss_and_grad(params, X, targets, weights)
        grads.W1[-1, 0] = np.nan
        with pytest.raises(NumericError, match="W1"):
            opt_step(params, grads, state)
        assert state.step == 1
        for name, arr in before.arrays().items():
            assert np.array_equal(params.arrays()[name], arr), name
        for name, arr in m_before.items():
            assert np.array_equal(state.m[name], arr), name


def test_adam_beta1_must_exceed_one_half():
    for beta1 in (0.5, 0.3, 1.0):
        with pytest.raises(ConfigError, match="beta1"):
            OptState(learning_rate=0.1, mode="adam", beta1=beta1)


def test_nonfinite_gradient_aborts(rng):
    params, X, targets, weights, _ = _random_setup(rng)
    _, grads = loss_and_grad(params, X, targets, weights)
    grads.W2[0, 0] = np.nan
    with pytest.raises(NumericError):
        opt_step(params, grads, OptState(learning_rate=0.1, mode="sgd"))


def test_bad_optimizer_mode():
    with pytest.raises(ConfigError):
        OptState(learning_rate=0.1, mode="rmsprop")


def test_init_deterministic():
    p1 = init_params(D, H, K, np.random.default_rng(7))
    p2 = init_params(D, H, K, np.random.default_rng(7))
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(p1.arrays()[name], p2.arrays()[name])


def test_checkpoint_roundtrip(rng, tmp_path):
    feat = Featurizer(vocab_size=V, dim=D)
    model = Model(params=init_params(D, H, K, rng), featurizer=feat,
                  num_labels=K, meta={"method": "poe"})
    probe = Dataset([_example([1, 2], [3, 4]), _example([5], [6])], K, V)
    before = model.predict_proba(probe)
    path = tmp_path / "m.ckpt.json"
    save_checkpoint(model, path, step=17, config_digest="abc")
    loaded = load_checkpoint(path)
    after = loaded.predict_proba(probe)
    assert np.max(np.abs(before - after)) <= 1e-12
    assert loaded.meta["method"] == "poe"


@pytest.mark.parametrize("num_labels,vocab_size", [(K + 1, V), (K, V + 1), (2, 2 * V)])
def test_predict_proba_refuses_data_of_another_label_count_or_vocabulary(
        rng, featurized, num_labels, vocab_size):
    model = Model(params=init_params(D, H, K, rng), featurizer=Featurizer(V, D), num_labels=K)
    other = Dataset([_example([1, 2], [3, 4])], num_labels, vocab_size)
    with pytest.raises(SchemaError, match="mismatch"):
        model.predict_proba(other)
    with pytest.raises(SchemaError, match="mismatch"):
        model.predict(other)
    assert featurized == []  # refused before the data is featurized


def test_checkpoint_corrupt_and_mismatched(rng, tmp_path):
    feat = Featurizer(vocab_size=V, dim=D)
    model = Model(params=init_params(D, H, K, rng), featurizer=feat, num_labels=K)
    path = tmp_path / "m.ckpt.json"
    save_checkpoint(model, path)

    trunc = tmp_path / "t.ckpt.json"
    trunc.write_text(path.read_text()[:100])
    with pytest.raises(DataError):
        load_checkpoint(trunc)

    obj = json.loads(path.read_text())
    del obj["meta"]["vocab_size"]
    novocab = tmp_path / "v.ckpt.json"
    novocab.write_text(json.dumps(obj))
    with pytest.raises(SchemaError):
        load_checkpoint(novocab)

    obj = json.loads(path.read_text())
    obj["meta"]["K"] = K + 2
    bad = tmp_path / "k.ckpt.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(SchemaError):
        load_checkpoint(bad)
