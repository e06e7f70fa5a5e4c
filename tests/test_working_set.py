"""The working set of a batched run, in state arrays, and the memory a
single run's generated loop takes to compile.

A batched `simulate` holds only the arrays its step needs: the recorded
rows (motions only, under `volume_ratio`), y, X, the stage arrays of one
step and the choice map's temporaries.
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
from hamgame.dynamics import _Flow, _loop_source

from conftest import zero_sum_from_edges

N, COUNTS = 2000, (3, 2, 4, 3)
EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]  # a ring plus a chord
# the measured peaks plus a margin of one state array: 8.89, 8.89 and 6.03
# state arrays since the run records motions only and the kernels scale
# into arrays they allocated (14.03, 14.03 and 12.03 before, with X and x
# rows and a fresh array for each u + h v; 14.04, 14.48 and 12.03 before
# the coordinate-major layout, when the leapfrog's spent kick lived through
# its second kick); the code before the working set was first trimmed
# peaked at 21.0, 19.7 and 18.7
BOUNDS = {"rk4": 9.9, "symplectic_leapfrog": 9.9, "euler": 7.05}


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


@pytest.mark.parametrize("scheme", sorted(BOUNDS))
def test_generated_loop_compile_peak(scheme):
    # the shape of the benchmark's six-agent orbit network: 19 coordinates,
    # 164 stored payoff terms.  Each loop writes its choice and payoff
    # fragments once: with two of each, rk4's took 1.81 MB.  Measured here:
    # 0.94 (euler), 1.18 (rk4) and 1.19 MB (leapfrog) on Python 3.11, 1.14,
    # 1.37 and 1.37 on 3.10, 1.42, 1.65 and 1.67 on 3.12
    counts = (2, 3, 4, 5, 3, 2)
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)]  # a ring plus two chords
    rng = np.random.default_rng(1)
    game = zero_sum_from_edges(counts, edges, rng)
    regs = tuple(Regularizer(kind, dim=k, scale=float(rng.uniform(0.5, 2.0)))
                 for k, kind in zip(counts, ("entropy", "euclidean") * 3))
    source = _loop_source(*_Flow(game, regs, [np.zeros(k) for k in counts]).loop_key(scheme))
    tracemalloc.start()
    try:
        compile(source, "<generated>", "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, f"{scheme}: compiling the loop peaked at {peak / 1e6:.2f} MB"
