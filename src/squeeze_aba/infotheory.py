"""Information-theoretic primitives in natural-log units (nats).

Conventions used throughout: ``0 * log 0 = 0`` and ``0 * log(0/a) = 0`` for
any ``a >= 0``; a genuinely unsupported ratio (q_i > 0 against s_i = 0)
yields ``+inf``.  Inputs are nonnegative weight vectors and need not sum
to 1.  Conversion to bits is a presentation concern: divide by ``LN2``.
"""

from __future__ import annotations

import numpy as np

from .channel import make_distribution
from .errors import DimensionMismatchError, NegativeEntryError, ValidationError

LN2 = float(np.log(2.0))


def _as_weights(q, name: str) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-d vector, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValidationError(f"{name} must be finite, got {q}")
    if np.any(q < 0):
        raise NegativeEntryError(f"{name} has a negative entry (min {q.min():.3e})")
    return q


def entropy(q) -> float:
    """Shannon entropy -sum q_i ln q_i of a nonnegative weight vector."""
    q = _as_weights(q, "q")
    pos = q > 0
    return float(-np.sum(q[pos] * np.log(q[pos])))


def row_entropies(w) -> np.ndarray:
    """Entropies -sum_j W_ij ln W_ij of the rows of a nonnegative weight matrix."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise DimensionMismatchError(f"w must be a 2-d matrix, got shape {w.shape}")
    if w.size and w.min() < 0:
        raise NegativeEntryError(f"w has a negative entry (min {w.min():.3e})")
    wlogw = w + (w == 0)  # 0 ln 1 = 0 stands for 0 ln 0 = 0
    np.log(wlogw, out=wlogw)
    wlogw *= w
    return -np.add.reduce(wlogw, axis=1)


def kl_divergence(q, s) -> float:
    """Relative entropy sum q_i ln(q_i / s_i); +inf if q puts mass where s has none."""
    q = _as_weights(q, "q")
    s = _as_weights(s, "s")
    if q.shape != s.shape:
        raise DimensionMismatchError(f"length mismatch: {q.shape[0]} vs {s.shape[0]}")
    pos = q > 0
    if np.any(s[pos] == 0):
        return float("inf")
    return float(np.sum(q[pos] * np.log(q[pos] / s[pos])))


def mutual_information(channel, p) -> float:
    """Mutual information sum_i p_i D(W_i || pW) for input distribution p.

    ``channel`` is a ChannelMatrix or a row-stochastic array; ``p`` is a
    Distribution or a length-m vector, checked by ``make_distribution``.
    Always finite for a channel with no identically-zero column.
    """
    w = np.asarray(getattr(channel, "w", channel), dtype=float)
    pv = make_distribution(getattr(p, "probs", p)).probs
    if w.ndim != 2 or pv.shape[0] != w.shape[0]:
        raise DimensionMismatchError(
            f"channel is {getattr(w, 'shape', None)}, p has length {pv.shape[0]}"
        )
    s = pv @ w
    total = 0.0
    for i in np.nonzero(pv > 0)[0]:
        total += pv[i] * kl_divergence(w[i], s)
    return float(total)


def nats_to_bits(x: float) -> float:
    return x / LN2
