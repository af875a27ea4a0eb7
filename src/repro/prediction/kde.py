"""Uniform-kernel KDE for predicted sample locations (Section III-A).

Each predicted worker/task sample ``s_i`` becomes a continuous pdf

    f(x) = prod_r (1 / h_r) * K((x[r] - s[r]) / h_r)

with the uniform kernel ``K(u) = 1/2 * 1(|u| <= 1)``, i.e. a uniform
distribution over the box ``[s[r] - h_r, s[r] + h_r]`` per dimension.
The bandwidth follows Hansen's rule-of-thumb for a second-order
uniform kernel:

    h_r = sigma_hat * C_v(k) * n^(-1/(2v+1)),   v = 2, C_v(k) = 1.8431

where ``sigma_hat`` is the per-dimension standard deviation of the
current worker/task locations and ``n`` the sample count.
"""

from __future__ import annotations

import numpy as np

# C_v(k) for the uniform kernel with kernel order v = 2 (paper value).
UNIFORM_KERNEL_CONSTANT = 1.8431

# Kernel order v = 2 gives the exponent -1/(2v+1) = -1/5.
_BANDWIDTH_EXPONENT = -0.2


def kde_bandwidth(sample_std: float, n: int) -> float:
    """Rule-of-thumb bandwidth ``h_r`` for one dimension.

    Args:
        sample_std: standard deviation of current entity locations
            along the dimension (the paper's ``sigma_hat``).
        n: number of samples the KDE is built over.

    A zero standard deviation (all mass at one coordinate) or ``n = 0``
    yields a zero bandwidth, i.e. degenerate point kernels.
    """
    if sample_std < 0.0:
        raise ValueError(f"standard deviation must be non-negative, got {sample_std}")
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    if n == 0 or sample_std == 0.0:
        return 0.0
    return sample_std * UNIFORM_KERNEL_CONSTANT * float(n) ** _BANDWIDTH_EXPONENT


def kernel_bounds(
    xs: np.ndarray,
    ys: np.ndarray,
    bandwidth_x: float,
    bandwidth_y: float,
    clip: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uniform-kernel support boxes of predicted samples, in bulk.

    Each sample ``(x, y)`` gets the box ``[x +- h_x] x [y +- h_y]``,
    clipped to the unit square by default so that predicted locations
    stay inside the data space.  Returns the ``(x_lo, x_hi, y_lo,
    y_hi)`` bound arrays: the same floats as
    ``Box.from_center(...).clipped()`` per sample.
    """
    if bandwidth_x < 0.0 or bandwidth_y < 0.0:
        raise ValueError("bandwidths must be non-negative")
    bounds = (xs - bandwidth_x, xs + bandwidth_x, ys - bandwidth_y, ys + bandwidth_y)
    if clip:
        bounds = tuple(np.minimum(np.maximum(axis, 0.0), 1.0) for axis in bounds)
    return bounds
