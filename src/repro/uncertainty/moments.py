"""Moments of the squared distance between uniform-kernel boxes.

Implements Section III-B of the paper.  A predicted worker ``w_hat``
(or task ``t_hat``) is a uniform distribution over an axis-aligned box.
With ``Z_r = w_hat[r] - t_hat[r]`` and ``Z^2 = Z_1^2 + Z_2^2`` the paper
derives:

- ``E(Z^2) = E(Z_1^2) + E(Z_2^2)``                          (Eq. 2)
- ``Var(Z^2) = E(Z_1^4) + 2 E(Z_1^2) E(Z_2^2) + E(Z_2^4) - E(Z^2)^2``
                                                            (Eq. 3)
- ``E(Z_r^2)`` via ``Var(Z_r) + E(Z_r)^2``                  (Eq. 4)
- ``E(Z_r^4)`` via the binomial expansion over raw uniform moments
                                                            (Eq. 5)

The raw moments ``E(X^k)`` of ``X ~ U[lb, ub]`` are
``(ub^{k+1} - lb^{k+1}) / ((k + 1)(ub - lb))``; the degenerate case
``lb == ub`` (a current entity at a known point) reduces to ``lb^k``.

The traveling *cost* statistic needed by the algorithms is about the
distance ``Z``, not ``Z^2``; :func:`distance_value` maps the squared-
distance moments onto a distance :class:`UncertainValue` with the
first-order delta method (see EXPERIMENTS.md, "Deviation analysis").
"""

from __future__ import annotations

import math

from repro.geo.box import Box, max_box_distance, min_box_distance
from repro.uncertainty.values import UncertainValue


def uniform_raw_moment(lb: float, ub: float, k: int) -> float:
    """``E(X^k)`` for ``X ~ Uniform[lb, ub]``.

    Handles the degenerate interval ``lb == ub`` (a deterministic
    coordinate) by returning ``lb ** k`` directly, which is the limit of
    the closed form.
    """
    if k < 0:
        raise ValueError(f"moment order must be non-negative, got {k}")
    if lb > ub:
        raise ValueError(f"malformed interval [{lb}, {ub}]")
    # Near-degenerate intervals hit catastrophic cancellation in the
    # closed form ((ub^{k+1} - lb^{k+1}) / ((k+1)(ub - lb))); treat
    # widths below the relative double-precision noise floor as points.
    if ub - lb <= 1e-12 * max(abs(lb), abs(ub), 1.0):
        return lb**k
    return (ub ** (k + 1) - lb ** (k + 1)) / ((k + 1) * (ub - lb))


def uniform_mean(lb: float, ub: float) -> float:
    """``E(X)`` for ``X ~ Uniform[lb, ub]``."""
    return (lb + ub) / 2.0


def uniform_variance(lb: float, ub: float) -> float:
    """``Var(X)`` for ``X ~ Uniform[lb, ub]`` (``(ub - lb)^2 / 12``)."""
    half_width = (ub - lb) / 2.0
    return half_width * half_width / 3.0


def _difference_moments(
    w_interval: tuple[float, float], t_interval: tuple[float, float]
) -> tuple[float, float]:
    """``E(Z_r^2)`` and ``E(Z_r^4)`` for ``Z_r = w[r] - t[r]``.

    ``w[r]`` and ``t[r]`` are independent uniforms on the two intervals.
    ``E(Z_r^2)`` follows Eq. 4; ``E(Z_r^4)`` follows Eq. 5 with the raw
    uniform moments of both endpoints.
    """
    w_lb, w_ub = w_interval
    t_lb, t_ub = t_interval

    # Eq. 4: E(Z_r^2) = Var(w) + Var(t) + (E(w) - E(t))^2.
    mean_gap = uniform_mean(w_lb, w_ub) - uniform_mean(t_lb, t_ub)
    second = uniform_variance(w_lb, w_ub) + uniform_variance(t_lb, t_ub) + mean_gap**2

    # Eq. 5: binomial expansion of E((w - t)^4) over raw moments.
    w1 = uniform_raw_moment(w_lb, w_ub, 1)
    w2 = uniform_raw_moment(w_lb, w_ub, 2)
    w3 = uniform_raw_moment(w_lb, w_ub, 3)
    w4 = uniform_raw_moment(w_lb, w_ub, 4)
    t1 = uniform_raw_moment(t_lb, t_ub, 1)
    t2 = uniform_raw_moment(t_lb, t_ub, 2)
    t3 = uniform_raw_moment(t_lb, t_ub, 3)
    t4 = uniform_raw_moment(t_lb, t_ub, 4)
    fourth = w4 - 4.0 * w3 * t1 + 6.0 * w2 * t2 - 4.0 * w1 * t3 + t4

    return second, fourth


def squared_distance_moments(worker_box: Box, task_box: Box) -> tuple[float, float]:
    """``(E(Z^2), Var(Z^2))`` of the squared distance between two boxes.

    This is the paper's Eqs. 2-3 specialized to independent per-
    dimension uniforms.  Both boxes may be degenerate (points).
    """
    e_z1_sq, e_z1_4 = _difference_moments(worker_box.interval(0), task_box.interval(0))
    e_z2_sq, e_z2_4 = _difference_moments(worker_box.interval(1), task_box.interval(1))

    mean_sq = e_z1_sq + e_z2_sq  # Eq. 2
    # Eq. 3 (dimensions independent, so E(Z1^2 Z2^2) = E(Z1^2) E(Z2^2)).
    e_z4 = e_z1_4 + 2.0 * e_z1_sq * e_z2_sq + e_z2_4
    variance_sq = e_z4 - mean_sq * mean_sq
    # Floating-point cancellation can leave a tiny negative residue.
    if variance_sq < 0.0:
        variance_sq = 0.0
    return mean_sq, variance_sq


def distance_value(worker_box: Box, task_box: Box) -> UncertainValue:
    """Distance between two boxes as an :class:`UncertainValue`.

    Mean/variance come from the squared-distance moments via the
    first-order delta method for ``sqrt``:

    - ``E(Z) ~= sqrt(E(Z^2))``
    - ``Var(Z) ~= Var(Z^2) / (4 E(Z^2))``

    Bounds are *exact* (min/max distance between the boxes), so the
    dominance pruning of Lemma 4.1 stays sound regardless of the
    delta-method approximation.
    """
    mean_sq, variance_sq = squared_distance_moments(worker_box, task_box)
    lower = min_box_distance(worker_box, task_box)
    upper = max_box_distance(worker_box, task_box)

    if mean_sq <= 0.0:
        # Both boxes are the same point: the distance is exactly zero.
        return UncertainValue.certain(0.0)

    mean = math.sqrt(mean_sq)
    variance = variance_sq / (4.0 * mean_sq)
    # The delta-method mean can stray slightly outside the exact bounds
    # for very tight boxes; clamp to keep the invariant lb <= mean <= ub.
    mean = min(max(mean, lower), upper)
    return UncertainValue(mean=mean, variance=variance, lower=lower, upper=upper)
