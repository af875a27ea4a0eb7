"""Vectorized counterparts of the scalar moment/comparison routines.

The scalar functions in :mod:`repro.uncertainty.moments` follow the
paper's equations one term at a time and are the reference the test
suite trusts; this module re-implements them over numpy arrays so the
pair builder can price hundreds of thousands of candidate pairs per
time instance.  Tests assert scalar/vector agreement.

Interval arrays describe per-dimension uniform supports: a set of ``k``
boxes is four arrays ``(x_lo, x_hi, y_lo, y_hi)`` of shape ``(k,)``.
All pairwise outputs broadcast worker axes against task axes.
"""

from __future__ import annotations

import numpy as np


def uniform_raw_moments_vec(lb: np.ndarray, ub: np.ndarray, k: int) -> np.ndarray:
    """``E(X^k)`` elementwise for ``X ~ Uniform[lb, ub]``.

    Degenerate intervals (``lb == ub``) return ``lb**k``.
    """
    return _uniform_raw_moments(lb, ub, (k,))[0]


def _uniform_raw_moments(lb, ub, orders: tuple[int, ...]) -> list[np.ndarray]:
    """``E(X^k)`` for each ``k`` in ``orders``, one degenerate-lane mask
    shared by all of them."""
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    # Near-degenerate lanes hit catastrophic cancellation in the
    # closed form; treat them as points (matches the scalar version).
    degenerate = ub - lb <= 1e-12 * np.maximum(np.maximum(np.abs(lb), np.abs(ub)), 1.0)
    # All-or-nothing shortcuts skip the unused branch; the selected
    # expressions are the same, so the values are bit-identical.  The
    # all-degenerate case is the workhorse: current entities are
    # points, so whole interval sets collapse to it.
    if degenerate.all():
        return [lb**k for k in orders]
    safe_width = np.where(degenerate, 1.0, ub - lb)
    mixed = degenerate.any()
    # Each power once: a degenerate lane's lb**k is the order below's lb**(k + 1).
    lb_power = {j: lb**j for j in {*orders, *(k + 1 for k in orders)}}
    moments = []
    for k in orders:
        moment = (ub ** (k + 1) - lb_power[k + 1]) / ((k + 1) * safe_width)
        moments.append(np.where(degenerate, lb_power[k], moment) if mixed else moment)
    return moments


def _difference_moments_vec(
    w_lb: np.ndarray, w_ub: np.ndarray, t_lb: np.ndarray, t_ub: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``(E(Z_r^2), E(Z_r^4))`` for ``Z_r = w[r] - t[r]``.

    The worker and task arrays broadcast against each other; the
    outputs take the broadcast shape.
    """
    w_mean = (w_lb + w_ub) / 2.0
    t_mean = (t_lb + t_ub) / 2.0
    w_var = (w_ub - w_lb) ** 2 / 12.0
    t_var = (t_ub - t_lb) ** 2 / 12.0
    second = w_var + t_var + (w_mean - t_mean) ** 2

    w1, w2, w3, w4 = _uniform_raw_moments(w_lb, w_ub, (1, 2, 3, 4))
    t1, t2, t3, t4 = _uniform_raw_moments(t_lb, t_ub, (1, 2, 3, 4))
    fourth = w4 - 4.0 * w3 * t1 + 6.0 * w2 * t2 - 4.0 * w1 * t3 + t4
    return second, fourth


def _interval_gap_vec(a_lo, a_hi, b_lo, b_hi):
    """Vectorized minimum distance between 1-D intervals."""
    below = np.maximum(b_lo - a_hi, 0.0)
    above = np.maximum(a_lo - b_hi, 0.0)
    return below + above


def _interval_span_vec(a_lo, a_hi, b_lo, b_hi):
    """Vectorized maximum distance between 1-D intervals."""
    return np.maximum(np.abs(a_hi - b_lo), np.abs(b_hi - a_lo))


def distance_stats_vec(
    worker_intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    task_intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise distance statistics between two box sets.

    Args:
        worker_intervals: ``(x_lo, x_hi, y_lo, y_hi)`` arrays, shape ``(k,)``.
        task_intervals: same, shape ``(m,)``.

    Returns:
        ``(mean, variance, lower, upper)`` arrays of shape ``(k, m)``,
        matching :func:`repro.uncertainty.moments.distance_value`
        elementwise (delta-method mean/variance, exact bounds).
    """
    return distance_stats_aligned(
        tuple(np.asarray(a, dtype=float)[:, None] for a in worker_intervals),
        task_intervals,
    )


def distance_stats_aligned(
    worker_intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    task_intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair distance statistics for aligned box sequences.

    ``worker_intervals[i]`` is paired with ``task_intervals[i]`` and the
    outputs have shape ``(k,)``; arrays that broadcast (a ``(k, 1)``
    worker axis against ``(m,)`` tasks) give the broadcast shape, which
    is how :func:`distance_stats_vec` builds its matrices.  Every
    operation involved is elementwise, so an aligned entry is
    bit-identical to the corresponding entry of the pairwise form — the
    contract the pair builders' survivor pricing relies on.
    """
    wx_lo, wx_hi, wy_lo, wy_hi = (np.asarray(a, dtype=float) for a in worker_intervals)
    tx_lo, tx_hi, ty_lo, ty_hi = (np.asarray(a, dtype=float) for a in task_intervals)

    e_z1_sq, e_z1_4 = _difference_moments_vec(wx_lo, wx_hi, tx_lo, tx_hi)
    e_z2_sq, e_z2_4 = _difference_moments_vec(wy_lo, wy_hi, ty_lo, ty_hi)

    mean_sq = e_z1_sq + e_z2_sq
    e_z4 = e_z1_4 + 2.0 * e_z1_sq * e_z2_sq + e_z2_4
    variance_sq = np.maximum(e_z4 - mean_sq * mean_sq, 0.0)

    lower = np.hypot(
        _interval_gap_vec(wx_lo, wx_hi, tx_lo, tx_hi),
        _interval_gap_vec(wy_lo, wy_hi, ty_lo, ty_hi),
    )
    upper = np.hypot(
        _interval_span_vec(wx_lo, wx_hi, tx_lo, tx_hi),
        _interval_span_vec(wy_lo, wy_hi, ty_lo, ty_hi),
    )

    positive = mean_sq > 0.0
    safe_mean_sq = np.where(positive, mean_sq, 1.0)
    mean = np.where(positive, np.sqrt(safe_mean_sq), 0.0)
    variance = np.where(positive, variance_sq / (4.0 * safe_mean_sq), 0.0)
    mean = np.clip(mean, lower, upper)
    return mean, variance, lower, upper


# Abramowitz & Stegun 7.1.26 coefficients (same as uncertainty.normal).
_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
_P = 0.3275911
_SQRT2 = np.sqrt(2.0)
_VARIANCE_FLOOR = 1e-24


def erf_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized error function (A&S 7.1.26, |error| < 1.5e-7)."""
    x = np.asarray(x, dtype=float)
    sign = np.where(x >= 0.0, 1.0, -1.0)
    ax = np.abs(x)
    t = 1.0 / (1.0 + _P * ax)
    poly = ((((_A[4] * t + _A[3]) * t + _A[2]) * t + _A[1]) * t + _A[0]) * t
    return sign * (1.0 - poly * np.exp(-ax * ax))


def phi_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized standard normal CDF."""
    return 0.5 * (1.0 + erf_vec(np.asarray(z, dtype=float) / _SQRT2))


def prob_greater_vec(
    mean_a: np.ndarray,
    var_a: np.ndarray,
    mean_b: np.ndarray,
    var_b: np.ndarray,
) -> np.ndarray:
    """Vectorized ``Pr{A > B}`` (Eq. 7) with deterministic fallback.

    Matches :func:`repro.uncertainty.comparison.prob_greater`
    elementwise: when the combined variance vanishes the result is the
    {0, 0.5, 1} indicator of the mean comparison.
    """
    mean_a = np.asarray(mean_a, dtype=float)
    mean_b = np.asarray(mean_b, dtype=float)
    gap = mean_a - mean_b
    combined = np.asarray(var_a, dtype=float) + np.asarray(var_b, dtype=float)
    deterministic = combined <= _VARIANCE_FLOOR
    safe = np.where(deterministic, 1.0, combined)
    stochastic = 1.0 - phi_vec(-gap / np.sqrt(safe))
    indicator = np.where(gap > 0.0, 1.0, np.where(gap < 0.0, 0.0, 0.5))
    return np.where(deterministic, indicator, stochastic)


def prob_less_or_equal_vec(
    mean_a: np.ndarray,
    var_a: np.ndarray,
    mean_b: np.ndarray,
    var_b: np.ndarray,
) -> np.ndarray:
    """Vectorized ``Pr{A <= B}`` (Eq. 8) with deterministic fallback."""
    mean_a = np.asarray(mean_a, dtype=float)
    mean_b = np.asarray(mean_b, dtype=float)
    gap = mean_a - mean_b
    combined = np.asarray(var_a, dtype=float) + np.asarray(var_b, dtype=float)
    deterministic = combined <= _VARIANCE_FLOOR
    safe = np.where(deterministic, 1.0, combined)
    stochastic = phi_vec(-gap / np.sqrt(safe))
    indicator = np.where(gap < 0.0, 1.0, np.where(gap > 0.0, 0.0, 0.5))
    return np.where(deterministic, indicator, stochastic)
