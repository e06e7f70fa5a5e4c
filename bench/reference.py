"""Plain-numpy references that the benchmark checks hamgame's outputs against.

Nothing here imports hamgame.  The choice maps, the payoff field, the RK4
step and the Bregman divergences are written out from their definitions,
agent by agent and edge by edge, so agreement with the program is evidence
and not a comparison of the program with itself.  A regularizer is given
as its (kind, domain, scale) parameters; a game as its edge matrices
payoffs[(i, j)] = A[i, j] and, for affine games, drifts b[(i, j)].
"""

from __future__ import annotations

import numpy as np


def softmax(u):
    e = np.exp(u - np.max(u))
    return e / np.sum(e)


def project_simplex(v):
    """Euclidean projection onto the probability simplex by sorting."""
    s = np.sort(v)[::-1]
    cs = np.cumsum(s)
    j = np.arange(1, v.size + 1)
    rho = np.nonzero(s - (cs - 1.0) / j > 0.0)[0][-1]
    return np.maximum(v - (cs[rho] - 1.0) / (rho + 1), 0.0)


def sigmoid(u):
    return 1.0 / (1.0 + np.exp(-u))


def choice(reg, y):
    """argmax_x <x, y> - scale * h(x) for one agent."""
    kind, domain, scale = reg
    u = y / scale
    if domain == "simplex":
        return softmax(u) if kind == "entropy" else project_simplex(u / 2.0)
    return sigmoid(u) if kind == "entropy" else np.clip(u / 4.0 + 0.5, 0.0, 1.0)


def motion_from_positions(y0, payoffs, drift, X, t):
    """y0_i + sum_j A[i, j] X_j + sum_j b[i, j] t, edge by edge."""
    z = [np.array(v, dtype=float) for v in y0]
    for (i, j), a in payoffs.items():
        z[i] = z[i] + a @ X[j]
    for (i, j), b in drift.items():
        z[i] = z[i] + b * t
    return z


def rk4(regs, payoffs, drift, y0, eta, steps):
    """Classical RK4 on (X, y) for `steps` steps; returns (y, X) after each."""
    n = len(y0)

    def rates(y):
        x = [choice(regs[i], y[i]) for i in range(n)]
        dy = [np.zeros_like(v) for v in y]
        for (i, j), a in payoffs.items():
            dy[i] = dy[i] + a @ x[j]
        for (i, j), b in drift.items():
            dy[i] = dy[i] + b
        return x, dy

    y = [np.array(v, dtype=float) for v in y0]
    X = [np.zeros_like(v) for v in y]
    out = []
    for _ in range(steps):
        k1x, k1y = rates(y)
        k2x, k2y = rates([y[i] + 0.5 * eta * k1y[i] for i in range(n)])
        k3x, k3y = rates([y[i] + 0.5 * eta * k2y[i] for i in range(n)])
        k4x, k4y = rates([y[i] + eta * k3y[i] for i in range(n)])
        y = [y[i] + eta / 6.0 * (k1y[i] + 2 * k2y[i] + 2 * k3y[i] + k4y[i]) for i in range(n)]
        X = [X[i] + eta / 6.0 * (k1x[i] + 2 * k2x[i] + 2 * k3x[i] + k4x[i]) for i in range(n)]
        out.append((y, X))
    return out


def bregman(reg, x_ref, x):
    """D(x_ref, x) on a simplex: scale * KL(x_ref || x) or scale * |x_ref - x|^2."""
    kind, domain, scale = reg
    if domain != "simplex":
        raise ValueError("reference Bregman distances cover simplex domains only")
    if kind == "entropy":
        return scale * float(np.sum(x_ref * np.log(x_ref / x)))
    return scale * float(np.sum((x_ref - x) ** 2))
