import math

import numpy as np
import pytest

from debias_forge.errors import ConfigError
from debias_forge.objectives import (
    AnnealSchedule, anneal_alpha, anneal_probs, build_targets, loss_confreg,
    loss_poe, loss_reweight, scale_teacher,
)


def _entropy(p):
    p = np.asarray(p)
    return float(-(p * np.log(p)).sum())


def _ce(p, label):
    return -math.log(p[label])


# -- neutral points ---------------------------------------------------------

def test_poe_with_uniform_expert_equals_cross_entropy():
    p_d = np.array([0.5, 0.3, 0.2])
    uniform = np.full(3, 1 / 3)
    for label in range(3):
        assert abs(loss_poe(p_d, uniform, label) - _ce(p_d, label)) < 1e-9


def test_reweight_neutral_points_exact():
    p_d = np.array([0.5, 0.3, 0.2])
    assert loss_reweight(p_d, 1, 0.0) == _ce(p_d, 1)
    assert loss_reweight(p_d, 1, 1.0) == 0.0


def test_confreg_neutral_point_is_raw_distillation():
    p_d = np.array([0.6, 0.3, 0.1])
    p_t = np.array([0.7, 0.2, 0.1])
    raw = float(-(p_t * np.log(p_d)).sum())
    assert abs(loss_confreg(p_d, p_t, 0.0) - raw) < 1e-12


# -- hand arithmetic --------------------------------------------------------

def test_reweight_hand_value():
    assert loss_reweight(np.array([0.3, 0.5, 0.2]), 1, 0.8) == pytest.approx(
        0.2 * -math.log(0.5), abs=1e-6)
    assert 0.2 * -math.log(0.5) == pytest.approx(0.13863, abs=1e-4)


def test_poe_hand_value():
    p_d = np.array([0.5, 0.3, 0.2])
    p_b = np.array([0.8, 0.1, 0.1])
    # independent recomputation: combined ∝ (0.40, 0.03, 0.02)
    combined = p_d * p_b
    combined /= combined.sum()
    expect = -math.log(combined[0])
    assert loss_poe(p_d, p_b, 0) == pytest.approx(expect, abs=1e-9)
    assert expect == pytest.approx(0.1178, abs=1e-3)


def test_scale_teacher_hand_value():
    out = scale_teacher(np.array([0.7, 0.2, 0.1]), 0.5)
    # independent recomputation: sqrt then renormalize
    raw = np.sqrt([0.7, 0.2, 0.1])
    assert np.allclose(out, raw / raw.sum(), atol=1e-9)
    assert np.allclose(out, [0.5228, 0.2794, 0.1976], atol=1e-3)


def test_confreg_hand_value():
    p_d = np.array([0.6, 0.3, 0.1])
    p_t = np.array([0.7, 0.2, 0.1])
    target = scale_teacher(p_t, 0.5)
    expect = float(-(target * np.log(p_d)).sum())
    assert loss_confreg(p_d, p_t, 0.5) == pytest.approx(expect, abs=1e-9)
    assert expect == pytest.approx(1.0585, abs=1e-3)


def test_poe_wrong_onehot_expert_inflates_loss():
    p_d = np.array([0.5, 0.3, 0.2])
    wrong = np.array([0.0, 1.0, 0.0])
    assert loss_poe(p_d, wrong, 0) > _ce(p_d, 0)


def test_losses_nonnegative(rng):
    for _ in range(50):
        p_d = rng.dirichlet(np.ones(3))
        p_b = rng.dirichlet(np.ones(3))
        p_t = rng.dirichlet(np.ones(3))
        label = int(rng.integers(0, 3))
        assert loss_reweight(p_d, label, float(rng.random())) >= 0
        assert loss_poe(p_d, p_b, label) >= 0
        assert loss_confreg(p_d, p_t, float(rng.random())) >= 0


# -- annealing --------------------------------------------------------------

def test_anneal_alpha_affine_endpoints():
    sched = AnnealSchedule(a=0.8, enabled=True)
    assert anneal_alpha(0, sched, 1000) == 1.0
    assert anneal_alpha(1000, sched, 1000) == pytest.approx(0.8, abs=1e-15)
    assert anneal_alpha(500, sched, 1000) == pytest.approx(0.9, abs=1e-15)
    # affine: second differences vanish
    vals = [anneal_alpha(t, sched, 1000) for t in range(0, 1001, 100)]
    diffs = np.diff(vals)
    assert np.allclose(diffs, diffs[0], atol=1e-12)
    assert all(d <= 0 for d in diffs)


def test_anneal_alpha_disabled_and_clamped(caplog):
    assert anneal_alpha(123, AnnealSchedule(), 10) == 1.0
    sched = AnnealSchedule(a=0.5, enabled=True)
    with caplog.at_level("WARNING"):
        assert anneal_alpha(11, sched, 10) == 0.5
    assert any("clamp" in r.message for r in caplog.records)


def test_anneal_schedule_validation():
    with pytest.raises(ConfigError):
        AnnealSchedule(a=1.2)


def test_anneal_probs_identity_and_uniform():
    p = np.array([0.8, 0.1, 0.1])
    assert np.array_equal(anneal_probs(p, 1.0), p)
    assert np.max(np.abs(anneal_probs(p, 0.0) - 1 / 3)) < 1e-9


def test_anneal_probs_hand_value():
    out = anneal_probs(np.array([0.8, 0.1, 0.1]), 0.5)
    raw = np.sqrt([0.8, 0.1, 0.1])
    assert np.allclose(out, raw / raw.sum(), atol=1e-9)
    assert np.allclose(out, [0.5858, 0.2071, 0.2071], atol=1e-3)


def test_anneal_probs_preserves_ranking_and_entropy_monotone(rng):
    for K in (2, 3, 5):
        for _ in range(100):
            p = rng.dirichlet(np.ones(K))
            prev_entropy = None
            for alpha in (1.0, 0.75, 0.5, 0.25, 0.05):
                q = anneal_probs(p, alpha)
                assert np.argmax(q) == np.argmax(p)
                for i in range(K):
                    for j in range(K):
                        if p[i] < p[j]:
                            assert q[i] <= q[j] + 1e-12
                h = _entropy(np.maximum(q, 1e-300))
                if prev_entropy is not None:
                    assert h >= prev_entropy - 1e-10  # entropy grows as alpha falls
                prev_entropy = h


def test_scale_teacher_endpoints_and_continuity():
    p = np.array([0.7, 0.2, 0.1])
    assert np.array_equal(scale_teacher(p, 0.0), p)
    assert np.allclose(scale_teacher(p, 1.0), 1 / 3, atol=1e-9)
    betas = np.linspace(0, 1, 21)
    outs = np.stack([scale_teacher(p, b) for b in betas])
    assert np.max(np.abs(np.diff(outs, axis=0))) < 0.05
    for b in betas[:-1]:
        assert np.argmax(scale_teacher(p, b)) == 0


# -- batch target construction ---------------------------------------------

def test_build_targets_baseline():
    targets, weights, offset = build_targets("baseline_ce", [2, 0], 3)
    assert np.array_equal(targets, [[0, 0, 1], [1, 0, 0]])
    assert np.array_equal(weights, [1, 1])
    assert offset is None


def test_build_targets_reweight_uses_annealed_pb():
    p_b = np.array([[0.8, 0.1, 0.1]])
    _, w, _ = build_targets("reweight", [0], 3, p_b=p_b, alpha=1.0)
    assert w[0] == pytest.approx(0.2, abs=1e-12)
    _, w0, _ = build_targets("reweight", [0], 3, p_b=p_b, alpha=0.0)
    assert w0[0] == pytest.approx(1 - 1 / 3, abs=1e-9)


def test_build_targets_poe_offset_is_log_pb():
    p_b = np.array([[0.8, 0.1, 0.1]])
    _, _, offset = build_targets("poe", [0], 3, p_b=p_b, alpha=1.0)
    assert np.allclose(offset, np.log(p_b), atol=1e-12)


def test_build_targets_confreg_matches_scalar_form():
    p_b = np.array([[0.6, 0.3, 0.1]])
    p_t = np.array([[0.7, 0.2, 0.1]])
    targets, w, offset = build_targets("conf_reg", [0], 3, p_b=p_b, p_t=p_t)
    assert np.allclose(targets[0], scale_teacher(p_t[0], 0.6), atol=1e-12)
    assert w[0] == 1.0 and offset is None


def test_build_targets_errors():
    with pytest.raises(ConfigError):
        build_targets("focal", [0], 3)
    with pytest.raises(ConfigError):
        build_targets("poe", [0], 3)
    with pytest.raises(ConfigError):
        build_targets("conf_reg", [0], 3, p_b=np.full((1, 3), 1 / 3))
