"""CLT-based comparison probabilities (Eqs. 7-9 of the paper).

Given two random quantities ``X`` and ``Y`` with known means and
variances, the paper invokes the central limit theorem to approximate
``X - Y`` as normal and evaluates:

- ``Pr{X > Y} = 1 - Phi(-(E(X) - E(Y)) / sd)``      (Eq. 7)
- ``Pr{X <= Y} = Phi(-(E(X) - E(Y)) / sd)``         (Eq. 8)
- ``Pr{sum of selected lower bounds + c <= B_max}`` (Eq. 9)

where ``sd = sqrt(Var(X) + Var(Y))``.  The paper's printed formulas
divide by ``Var(X) + Var(Y)`` without the square root; standardizing a
normal difference requires the standard deviation, so we use the square
root (see EXPERIMENTS.md, "Deviation analysis").  When both quantities
are deterministic the probabilities degenerate to {0, 0.5, 1} indicator
comparisons.
"""

from __future__ import annotations

import math

from repro.uncertainty.normal import standard_normal_cdf
from repro.uncertainty.values import UncertainValue

# Below this combined variance the difference is treated as
# deterministic; avoids dividing by a denormal standard deviation.
_VARIANCE_FLOOR = 1e-24


def _deterministic_probability(gap: float) -> float:
    """{0, 0.5, 1} outcome for a comparison with no randomness left."""
    if gap > 0.0:
        return 1.0
    if gap < 0.0:
        return 0.0
    return 0.5


def prob_greater(x: UncertainValue, y: UncertainValue) -> float:
    """``Pr{X > Y}`` via the CLT (Eq. 7).

    Used to decide whether pair ``<w_i, t_j>`` has a higher quality
    score increase than pair ``<w_a, t_b>``.
    """
    gap = x.mean - y.mean
    combined_variance = x.variance + y.variance
    if combined_variance <= _VARIANCE_FLOOR:
        return _deterministic_probability(gap)
    return 1.0 - standard_normal_cdf(-gap / math.sqrt(combined_variance))


def prob_less_or_equal(x: UncertainValue, y: UncertainValue) -> float:
    """``Pr{X <= Y}`` via the CLT (Eq. 8).

    Used to decide whether pair ``<w_i, t_j>`` has a smaller traveling
    cost increase than pair ``<w_a, t_b>``.
    """
    gap = x.mean - y.mean
    combined_variance = x.variance + y.variance
    if combined_variance <= _VARIANCE_FLOOR:
        return _deterministic_probability(-gap)
    return standard_normal_cdf(-gap / math.sqrt(combined_variance))


def prob_within_budget(
    selected_lower_bound_sum: float,
    candidate_cost: UncertainValue,
    budget: float,
) -> float:
    """``Pr{sum of selected lb costs + c_ij <= B_max}`` (Eq. 9).

    The already-selected pairs contribute their guaranteed lower-bound
    costs (constants); only the new candidate's cost is random.  A pair
    is ruled out of the candidate set when this probability does not
    exceed the confidence level ``delta``.
    """
    headroom = budget - selected_lower_bound_sum - candidate_cost.mean
    if candidate_cost.variance <= _VARIANCE_FLOOR:
        return 1.0 if headroom >= 0.0 else 0.0
    return standard_normal_cdf(headroom / math.sqrt(candidate_cost.variance))
