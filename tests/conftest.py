"""Shared game builders and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from hamgame import (
    GeneralizedGame,
    IntegratorConfig,
    NetworkGame,
    ProductRegularizer,
    Regularizer,
    default_regularizers,
    payoffs_from_profile,
    reduce_bipartite_to_two_agent,
    simulate,
)
from hamgame.dynamics import KERNELS, _Flow

MP_MATRIX = np.array([[1.0, -1.0], [-1.0, 1.0]])


def matching_pennies() -> NetworkGame:
    return NetworkGame((2, 2), {(0, 1): MP_MATRIX, (1, 0): -MP_MATRIX.T}, sigma=-1)


def coordination_identity() -> NetworkGame:
    eye = np.eye(2)
    return NetworkGame((2, 2), {(0, 1): eye, (1, 0): eye}, sigma=1)


def double_centered(rng, shape):
    """Random matrix with zero row and column sums: uniform play earns zero."""
    m = rng.normal(size=shape)
    m = m - m.mean(axis=1, keepdims=True)
    m = m - m.mean(axis=0, keepdims=True)
    return m


def zero_sum_from_edges(counts, edges, rng, centered=False):
    """Random zero-sum network on the given undirected edges."""
    payoffs = {}
    for i, j in edges:
        a = rng.normal(size=(counts[i], counts[j]))
        if centered:
            a = double_centered(rng, (counts[i], counts[j]))
        payoffs[(i, j)] = a
        payoffs[(j, i)] = -a.T
    return NetworkGame(tuple(counts), payoffs, sigma=-1)


def triangle_zero_sum(seed=3, counts=(2, 3, 2), centered=True):
    rng = np.random.default_rng(seed)
    return zero_sum_from_edges(counts, [(0, 1), (1, 2), (0, 2)], rng, centered)


def four_cycle_zero_sum(seed=4, counts=(2, 2, 3, 2), centered=True):
    rng = np.random.default_rng(seed)
    return zero_sum_from_edges(counts, [(0, 1), (1, 2), (2, 3), (0, 3)], rng, centered)


def star_zero_sum(seed=5, counts=(2, 2, 3), centered=False):
    rng = np.random.default_rng(seed)
    return zero_sum_from_edges(counts, [(0, 1), (0, 2)], rng, centered)


def coordination_triangle(seed=6, counts=(2, 2, 2)):
    rng = np.random.default_rng(seed)
    payoffs = {}
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        a = rng.normal(size=(counts[i], counts[j]))
        payoffs[(i, j)] = a
        payoffs[(j, i)] = a.T
    return NetworkGame(tuple(counts), payoffs, sigma=1)


def uniform_profile(game):
    return tuple(np.full(k, 1.0 / k) for k in game.strategy_counts)


def interior_start(game, regs, profile):
    return tuple(payoffs_from_profile(r, np.asarray(x)) for r, x in zip(regs, profile))


def mp_start(kind="euclidean", x1=(0.6, 0.4), x2=(0.5, 0.5)):
    game = matching_pennies()
    regs = default_regularizers(game, kind)
    y0 = interior_start(game, regs, (np.array(x1), np.array(x2)))
    return game, regs, y0


def run(game, regs, y0, scheme="rk4", eta=1e-3, horizon=10.0, stride=10, **kw):
    return simulate(game, regs, y0, IntegratorConfig(scheme, eta, horizon, stride), **kw)


def leapfrog_there_and_back(game, regs, y0, eta, n):
    """(y, X) after n leapfrog steps of eta and n of -eta.

    IntegratorConfig takes only positive steps, so this drives the kernel
    directly, in the flow's own layout: lists of floats for a 1-D start.
    """
    flow, kernel = _Flow(game, regs, y0), KERNELS["symplectic_leapfrog"]
    t, y, X, force = 0.0, flow.y0, flow.zeros(), None
    for h in (eta,) * n + (-eta,) * n:
        y, X, force = kernel(flow, t, y, X, None, force, h)
        t += h
    return flow.op.split(np.asarray(y)), flow.op.split(np.asarray(X))


# ---------------------------------------------------------------------------
# oracles


def grid_argmax(reg: Regularizer, y, step=1e-4):
    """Brute-force maximizer of <x, y> - h(x) over a dense 2-simplex grid.

    Independent of the choice-map code path: evaluates the objective on the
    grid and picks the best point.
    """
    from hamgame import h_value

    assert reg.domain == "simplex" and reg.dim == 2
    p = np.arange(0.0, 1.0 + step / 2, step)
    grid = np.stack([p, 1.0 - p], axis=1)
    y = np.asarray(y, dtype=float)
    values = grid @ y - h_value(reg, grid)
    return grid[int(np.argmax(values))]


def harmonic_orbit(x1_0, x2_0, t):
    """Closed form for the reduced euclidean Matching Pennies orbit.

    With p = first coordinate of agent one and q = first coordinate of
    agent two, the interior flow is dp/dt = q - 1/2, dq/dt = -(p - 1/2):
    circles of period 2 pi around (1/2, 1/2).
    """
    u0, v0 = x1_0 - 0.5, x2_0 - 0.5
    t = np.asarray(t, dtype=float)
    u = u0 * np.cos(t) + v0 * np.sin(t)
    v = v0 * np.cos(t) - u0 * np.sin(t)
    return 0.5 + u, 0.5 + v


def pure_equilibria_2x2(game):
    """Exhaustive best-response-stable pure profiles of a 2x2 game."""
    a = game.matrix(0, 1)
    b = game.matrix(1, 0)
    out = []
    for s1 in range(2):
        for s2 in range(2):
            if a[s1, s2] >= a[1 - s1, s2] and b[s2, s1] >= b[1 - s2, s1]:
                e1 = np.zeros(2)
                e2 = np.zeros(2)
                e1[s1] = 1.0
                e2[s2] = 1.0
                out.append((e1, e2))
    return out


def scalar_payoff(a, u, v):
    """(u, 1-u)' A (v, 1-v): the 2x2 payoff in scalar coordinates."""
    xu = np.array([u, 1.0 - u])
    xv = np.array([v, 1.0 - v])
    return float(xu @ a @ xv)


# Frozen per-agent copies of the choice maps, the payoff field and the
# reconstructed motions, with their own loops over the edge dictionaries:
# they share no arithmetic with the flat code under test.


def _ref_project_simplex(v):
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    css = np.cumsum(u, axis=-1)
    k = np.arange(1, v.shape[-1] + 1)
    rho = np.sum(u > (css - 1.0) / k, axis=-1, keepdims=True)
    tau = (np.take_along_axis(css, rho - 1, axis=-1) - 1.0) / rho
    return np.maximum(v - tau, 0.0)


def _ref_choice(reg, y):
    if isinstance(reg, ProductRegularizer):
        return np.concatenate([_ref_choice(b, y[..., s]) for b, s in reg.slices()], axis=-1)
    u = y / reg.scale
    if reg.kind == "entropy":
        if reg.domain == "simplex":
            e = np.exp(u - u.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)
        return 0.5 * (1.0 + np.tanh(0.5 * u))
    if reg.domain == "simplex":
        return _ref_project_simplex(u / 2.0)
    return np.clip(u / 4.0 + 0.5, 0.0, 1.0)


def _ref_field(game, xs):
    out = []
    for i in range(game.n):
        total = np.zeros_like(xs[i])
        for j in range(game.n):
            if j == i:
                continue
            a = game.payoffs.get((i, j))
            if a is not None:
                total += xs[j] @ a.T
            if isinstance(game, GeneralizedGame):
                bv = game.b.get((i, j))
                if bv is not None:
                    total += bv
        out.append(total)
    return out


def _ref_motion(game, y0, X, t):
    out = []
    for j in range(game.n):
        z = y0[j]
        for i in range(game.n):
            if i == j:
                continue
            a = game.payoffs.get((j, i))
            if a is not None:
                z = z + X[i] @ a.T
            if isinstance(game, GeneralizedGame):
                bv = game.b.get((j, i))
                if bv is not None:
                    z = z + bv * t
        out.append(z)
    return out


def _random_case(family, counts, seed, batch):
    """A random game of the family, with regularizers and a start y0 (batched when batch is set)."""
    rng = np.random.default_rng(seed)
    n = len(counts)
    kinds = rng.choice(["entropy", "euclidean"], size=n)
    scales = rng.choice([1.0, 0.5, 2.0], size=n)
    if family == "bipartite_fold":
        side = [i % 2 for i in range(n)]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if side[i] != side[j]]
    else:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in edges if rng.uniform() < 0.7] or edges[:1]
    sigma = 1 if family == "coordination" else -1
    if family in ("affine", "bipartite_fold"):
        sigma = int(rng.choice([-1, 1]))
    payoffs = {}
    for i, j in edges:
        a = rng.normal(size=(counts[i], counts[j]))
        payoffs[(i, j)] = a
        payoffs[(j, i)] = sigma * a.T
    if family == "affine":
        spaces = tuple(rng.choice(["simplex", "box"], size=n))
        b = {e: rng.normal(size=counts[e[0]]) for e in payoffs if rng.uniform() < 0.7}
        game = GeneralizedGame(tuple(counts), payoffs, sigma=sigma, b=b, spaces=spaces)
    else:
        spaces = ("simplex",) * n
        game = NetworkGame(tuple(counts), payoffs, sigma=sigma)
    regs = tuple(
        Regularizer(str(kd), domain=str(sp), dim=k, scale=float(sc))
        for kd, sp, k, sc in zip(kinds, spaces, counts, scales)
    )
    lead = () if batch is None else (batch,)
    y0 = tuple(0.7 * rng.normal(size=lead + (k,)) for k in counts)
    if family == "bipartite_fold":
        partition = tuple([i for i in range(n) if side[i] == s] for s in (0, 1))
        red = reduce_bipartite_to_two_agent(game, partition)
        return red.game, red.meta_regularizers(regs), red.meta_vectors(y0)
    return game, regs, y0


@pytest.fixture
def rng():
    return np.random.default_rng(0)
