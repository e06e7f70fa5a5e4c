"""The working set of a batched run, in state arrays.

A batched `simulate` holds only the arrays its step needs: the recorded
rows, y, X, the stage arrays of one step and the choice map's temporaries.
The bound is on the tracemalloc peak of `volume_ratio` on a (2000, 12)
cloud, the shape of the benchmark's `cloud` workload, counted in units of
one (2000, 12) float64 state array.  tracemalloc counts the bytes numpy
allocates, not resident memory, so the bound does not depend on the
machine.
"""

import tracemalloc

import numpy as np
import pytest

from hamgame import IntegratorConfig, Regularizer, sample_payoff_ball, volume_ratio

from conftest import zero_sum_from_edges

N, COUNTS = 2000, (3, 2, 4, 3)
EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]  # a ring plus a chord
# the measured peaks, 14.04, 14.48 and 12.03 state arrays, plus a margin
# of one state array; the code before the working set was trimmed peaked
# at 21.0, 19.7 and 18.7
BOUNDS = {"rk4": 15.0, "symplectic_leapfrog": 15.5, "euler": 13.0}


@pytest.mark.parametrize("scheme", sorted(BOUNDS))
def test_volume_ratio_allocation_peak(scheme):
    rng = np.random.default_rng(1)
    game = zero_sum_from_edges(COUNTS, EDGES, rng, centered=True)
    regs = tuple(Regularizer(kind, dim=k) for k, kind in zip(COUNTS, ("entropy", "euclidean") * 2))
    cloud = sample_payoff_ball([0.1 * rng.normal(size=k) for k in COUNTS], 0.01, N, 1)
    config = IntegratorConfig(scheme, 0.05, 0.5, 1)
    volume_ratio(game, regs, cloud, config)  # caches filled on a first call are not the batch's
    tracemalloc.start()
    try:
        volume_ratio(game, regs, cloud, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (N * sum(COUNTS) * np.dtype(float).itemsize)
    assert arrays <= BOUNDS[scheme], f"{scheme}: peak {arrays:.2f} state arrays"
