"""The KS statistic by full evaluation: the CDF at every sample.

This is the arithmetic ks_statistic used before it came to evaluate the
CDF only where the supremum can be; the library's statistic must equal
it bit for bit on a nondecreasing, elementwise CDF.
"""

import numpy as np


def full_ks(samples, cdf, weights=None) -> float:
    """max(max(upper - F), max(F - lower)) over every sorted sample."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if weights is None:
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
    else:
        cum = np.cumsum(np.asarray(weights, dtype=float))
        upper = cum / cum[-1]
        lower = np.concatenate([[0.0], upper[:-1]])
    f = np.asarray(cdf(samples), dtype=float)
    return max(float(np.max(upper - f)), float(np.max(f - lower)))
