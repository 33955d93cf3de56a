"""Sums of exponentials sampled on a uniform grid, from two small tables.

The Floquet solution of a response-map cell and the frequency-route
correlators are both sums sum_r w_r exp(s_r t) at t_k = start + k dt.
With m = ceil(sqrt(samples)) and k = a m + b, exp(s t_k) = exp(s (start +
a m dt)) exp(s b dt), so a table P of the first factor over a < m and a
table Q of the second over b < m give every sample from one matrix
product: 2 m rows of exponentials in place of one row per sample.
"""

from __future__ import annotations

import math

import numpy as np


def uniform_samples(weights: np.ndarray, table, start: float, dt: float,
                    samples: int) -> np.ndarray:
    """sum_r weights[i, r] exp(s_r t_k) for k < samples, as a (rows, samples) array.

    ``table(t)`` gives exp(s_r t), a row per time of the 1-d array t and a
    column per rate.  Row i of the result is (P diag(w_i)) Q^T read row by row.
    """
    m = math.isqrt(samples - 1) + 1                     # ceil(sqrt(samples))
    k = np.arange(m)
    outer = table(start + k * m * dt)                   # P
    inner = table(k * dt)                               # Q
    rows = weights.shape[0]
    y = (weights[:, None, :] * outer).reshape(rows * m, -1) @ inner.T
    return y.reshape(rows, m * m)[:, :samples]
