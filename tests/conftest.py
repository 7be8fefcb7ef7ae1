"""Shared fixtures: a session-wide cache of optimized distributions.

The acceptance suite and several unit tests need the same optimized node
sets; generating them is the dominant cost, so one bottom-up cache is built
lazily and shared across the whole session.

BLAS runs on one thread unless the environment says otherwise: the suite's
matrices are small, and threaded BLAS only adds overhead on them.  The
variables must be set before numpy is first imported.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest

from symnodes.compatibility import face_prescriptions
from symnodes.optimizer import OptimizerConfig, optimize_nodes


class OptimizedCache:
    """Lazy bottom-up generator of compatibility-constrained optima."""

    def __init__(self, config=None):
        self.config = config or OptimizerConfig()
        self._results = {}

    def prescriptions(self, kind, p):
        return face_prescriptions(kind, p, self.dist)

    def result(self, kind, p):
        key = (kind, p)
        if key not in self._results:
            pres = self.prescriptions(kind, p)
            self._results[key] = optimize_nodes(kind, p, pres, self.config)
        return self._results[key]

    def dist(self, kind, p):
        return self.result(kind, p).distribution


@pytest.fixture(scope="session")
def opt_cache():
    return OptimizedCache()
