"""Debiased per-example training objectives and the annealing mechanism.

Every method is expressed as (target distribution, weight, optional logit
offset) consumed by the classifier's soft-target cross-entropy:

    baseline_ce  target = one-hot(label),                weight = 1
    reweight     target = one-hot(label),                weight = 1 - p_b[gold]
    poe          target = one-hot(label), offset = log p_b (fixed expert)
    conf_reg     target = scale_teacher(p_t, p_b[gold]), weight = 1

Annealing power-renormalizes the p_b vector with exponent alpha_t before it
enters any of the objectives; alpha_t decays linearly from 1 to the
schedule's floor `a` over the planned optimizer steps.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

logger = logging.getLogger(__name__)

METHODS = ("baseline_ce", "reweight", "poe", "conf_reg")
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class AnnealSchedule:
    """The annealing of p_b; `a` is the paper's annealing floor, the alpha
    that the schedule reaches at the last planned step."""
    enabled: bool = False
    a: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ConfigError(f"anneal floor a must be in [0, 1], got {self.a}")


def anneal_alpha(t: int, sched: AnnealSchedule, total_steps: int) -> float:
    """Linear decay from 1 at t=0 to sched.a at t=total_steps, the
    planned optimizer steps."""
    if not sched.enabled:
        return 1.0
    if t > total_steps:
        logger.warning("anneal step %d beyond total_steps %d; clamping", t, total_steps)
        return sched.a
    return 1.0 - t * (1.0 - sched.a) / total_steps


def anneal_probs(p_b, alpha: float) -> np.ndarray:
    """Power-renormalize: p_j^alpha / sum_k p_k^alpha. Rows if p_b is 2-D."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 1.0:
        return np.array(p_b, dtype=np.float64)
    q = np.maximum(np.asarray(p_b, dtype=np.float64), PROB_FLOOR) ** alpha
    return q / q.sum(axis=-1, keepdims=True)


def scale_teacher(p_t, beta: float) -> np.ndarray:
    """Smooth the teacher distribution: p_j^(1-beta) renormalized.

    beta=0 returns the teacher unchanged; beta=1 returns uniform.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must be in [0, 1], got {beta}")
    return anneal_probs(p_t, 1.0 - beta)


def _log_clamped(p) -> np.ndarray:
    return np.log(np.maximum(np.asarray(p, dtype=np.float64), PROB_FLOOR))


def loss_reweight(p_d, label: int, p_b_correct: float) -> float:
    """-(1 - p_b_correct) * log p_d[label]."""
    if not 0.0 <= p_b_correct <= 1.0:
        raise ConfigError("p_b_correct must be in [0, 1]")
    return float(-(1.0 - p_b_correct) * _log_clamped(p_d)[label])


def loss_poe(p_d, p_b, label: int) -> float:
    """-log softmax(log p_d + log p_b)[label] (the fixed-expert ensemble loss)."""
    z = _log_clamped(p_d) + _log_clamped(p_b)
    z -= z.max()
    logq = z - np.log(np.exp(z).sum())
    return float(-logq[label])


def loss_confreg(p_d, p_t, p_b_correct: float) -> float:
    """Cross-entropy of p_d against the scaled teacher distribution."""
    target = scale_teacher(p_t, p_b_correct)
    return float(-(target * _log_clamped(p_d)).sum())


def build_targets(method: str, labels, K: int, p_b=None, p_t=None, alpha: float = 1.0):
    """Per-batch (targets, weights, logit_offset) for the selected objective.

    labels: (n,) gold labels. p_b: (n, K) shallow-model outputs (annealed here
    with alpha). p_t: (n, K) frozen teacher outputs (conf_reg only).
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    onehot = np.zeros((n, K))
    onehot[np.arange(n), labels] = 1.0

    if method == "baseline_ce":
        return onehot, np.ones(n), None

    if p_b is None:
        raise ConfigError(f"method {method!r} requires shallow-model probabilities")
    pb = anneal_probs(np.asarray(p_b, dtype=np.float64), alpha)

    if method == "reweight":
        pbc = pb[np.arange(n), labels]
        return onehot, 1.0 - pbc, None
    if method == "poe":
        return onehot, np.ones(n), _log_clamped(pb)
    # conf_reg
    if p_t is None:
        raise ConfigError("method 'conf_reg' requires a trained teacher")
    pbc = pb[np.arange(n), labels]
    pt = np.maximum(np.asarray(p_t, dtype=np.float64), PROB_FLOOR)
    q = pt ** (1.0 - pbc)[:, None]
    targets = q / q.sum(axis=1, keepdims=True)
    return targets, np.ones(n), None
