"""Noise rule v1, rebuilt in the tests.

Under rule v1, the library's rule before v2, row i was the normals of
numpy's default_rng([seed, i]) times sqrt(dt).  The library draws v2
only; the v1 golden digests take their rows from this subclass, which
the README's reproducibility recipe spells out the same way.
"""

import math

import numpy as np

from ckls import NoiseMatrix


class NoiseV1(NoiseMatrix):
    def increments(self, lo=0, hi=None):
        hi = self.n_paths if hi is None else hi
        n = self.grid.n_steps
        rows = [np.random.default_rng([self.seed, i]).standard_normal(n) for i in range(lo, hi)]
        return np.array(rows).reshape(hi - lo, n) * math.sqrt(self.grid.dt)
