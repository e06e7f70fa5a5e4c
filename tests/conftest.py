"""Shared game builders and independent oracles for the test suite."""

from __future__ import annotations

import contextlib
from math import isfinite
from operator import add, itemgetter, mul, truediv

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
    select_energy,
    simulate,
)
from hamgame import dynamics
from hamgame.dynamics import BLOW_UP_LIMIT, PayoffOperator, _Flow, product_lines
from hamgame.regularizers import BlockChoiceMap, NonFinitePayoff, choice_lines, define, literal

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


def energy_rows(traj, game, regs, variant):
    """The energy variant read at each row of a single trajectory, one row at a time."""
    read, _ = select_energy(game, regs, variant)
    return np.array([float(read(y, X, traj.y[0], t).value) for t, y, X in zip(traj.t, traj.y, traj.X)])


def consistent_point(game, y0, X, t=0.0):
    """Flat (y, X, y0) at per-agent y0 and X, the motions rebuilt as y0 + M X (+ b t)."""
    op = PayoffOperator(game)
    y0, X = op.join(y0), op.join(X)
    return op.motion(y0, X, t), X, y0


def leapfrog_there_and_back(game, regs, y0, eta, n):
    """(y, X) after n leapfrog steps of eta and n of -eta.

    IntegratorConfig takes only positive steps, so this calls the generated
    single-trajectory loop that simulate runs, once over steps 1..n and once
    with -eta over steps 1-n..0, whose times (step - 1) * -eta run from
    n * eta back down; the last kick carries over, as between two steps.
    The leapfrog reads no x.
    """
    flow = _Flow(game, regs, y0)
    advance, start = flow.advance("symplectic_leapfrog"), flow.y0.tolist()
    _, y, X, _, carry, stop = advance(start, start, [0.0] * len(start), None, None, 0, n, eta)
    assert stop is None
    _, y, X, _, _, stop = advance(start, y, X, None, carry, -n, 0, -eta)
    assert stop is None
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


# The generated loops' two fragments as functions on lists of floats,
# defined through regularizers.define: choice_lines as choice(y), and
# product_lines as linear(x), field(x) and motion(y0, X, t), the motions
# written as the leapfrog's motion pass writes them, y0 + (A X) + b t.


def _function(head, unpack, lines, out):
    return define("\n    ".join([head, *unpack, *lines, f"return [{', '.join(out)}]"]) + "\n")


def _coordinates(name, dim):
    return [f"{name}_{c}" for c in range(dim)]


def float_choice(regs):
    """choice_lines for the regularizers on one list of floats, into a list."""
    leaves = BlockChoiceMap(regs).leaves
    y, x = (_coordinates(name, sum(r.dim for r in leaves)) for name in ("y", "x"))
    return _function("def choice(y):", [f"{', '.join(y)}, = y"], choice_lines(leaves, y, x), x)


class FloatProduct:
    """product_lines for a game's payoffs on lists of floats: linear, field and motion."""

    def __init__(self, game):
        op = PayoffOperator(game)
        drift = None if op.drift is None else op.drift.tolist()
        x, out, y0, m = (_coordinates(name, op.dim) for name in ("x", "o", "a", "m"))
        unpack = [f"{', '.join(x)}, = x"]

        def lines(d):
            return product_lines(game.strategy_counts, game.payoffs, x, out, d)

        self.linear = _function("def linear(x):", unpack, lines(None), out)
        self.field = _function("def field(x):", unpack, lines(drift), out)
        motion = [f"{mr} = {ar} + {o}" for mr, ar, o in zip(m, y0, out)]
        if drift is not None:
            motion = [f"{line} + {literal(b)}*t" for line, b in zip(motion, drift)]
        self.motion = _function("def motion(y0, x, t):", unpack + [f"{', '.join(y0)}, = y0"], lines(None) + motion, m)


# Frozen copy of the float path that straight-line generated code replaced:
# BlockChoiceMap's per-block loops on a list (_single, _project_floats and the
# replayed numpy sum _add_reduce) and PayoffOperator's loop product, field and
# motion on lists.  The fragments above must reproduce its bits and errors.


def frozen_add_reduce(v):
    """np.add.reduce of a list of floats, bit for bit (builtin sum() compensates)."""
    n = len(v)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return frozen_add_reduce(v[:half]) + frozen_add_reduce(v[half:])
    s, end = 0.0, n - n % 8
    if end:
        r = v[:8]
        for i in range(8, end, 8):
            r = list(map(add, r, v[i : i + 8]))
        s += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for c in v[end:]:
        s += c
    return s


def frozen_project_floats(u):
    """project_simplex on a list of floats: the sorted rule, operation for operation."""
    thresholds, csum, rho = [], 0.0, 0
    for j, c in enumerate(sorted(u, reverse=True), 1):
        csum += c
        t = (csum - 1.0) / j
        rho += c > t
        thresholds.append(t)
    tau = thresholds[rho - 1] if rho else 0.0
    return [d if (d := c - tau) > 0.0 else 0.0 for c in u]


class FrozenFloatChoice:
    """BlockChoiceMap on one list of floats, as per-block loops."""

    def __init__(self, regs):
        leaves = list(_frozen_leaves(regs))
        prescale = {("euclidean", "simplex"): 2.0, ("euclidean", "box"): 4.0}
        self.factors = [float(r.scale * prescale.get((r.kind, r.domain), 1.0)) for r in leaves for _ in range(r.dim)]
        single, start = {}, 0
        for reg in leaves:
            box = reg.domain == "box"
            blocks = [(c, c + 1) for c in range(start, start + reg.dim)] if box else [(start, start + reg.dim)]
            single.setdefault((reg.kind, reg.domain), []).extend(blocks)
            start += reg.dim
        self.softmax = single.get(("entropy", "simplex"), [])
        self.sigmoid = [i for i, _ in single.get(("entropy", "box"), [])]
        self.clip = [i for i, _ in single.get(("euclidean", "box"), [])]
        euclid = single.get(("euclidean", "simplex"), [])
        pair = max((b - a for a, b in euclid if b - a < 8), default=0) == 2
        self.pair = [b for b in euclid if pair and b[1] - b[0] <= 2]
        self.sort = [b for b in euclid if not (pair and b[1] - b[0] <= 2)]

    def __call__(self, v):
        if not isfinite(frozen_add_reduce(v)):
            raise NonFinitePayoff("choice map requires finite payoff vector")
        u = list(map(truediv, v, self.factors))
        x = u[:]
        for first, stop in self.pair:
            if stop - first == 2:
                a, b = u[first], u[first + 1]
                wide = (a + b - 1.0) / 2
                tau = wide if (a if a < b else b) > wide else (b if a < b else a) - 1.0
                d, e = a - tau, b - tau
                x[first], x[first + 1] = d if d > 0.0 else 0.0, e if e > 0.0 else 0.0
            else:
                a = u[first]
                d = a - (a - 1.0)
                x[first] = d if d > 0.0 else 0.0
        for first, stop in self.sort:
            x[first:stop] = frozen_project_floats(u[first:stop])
        for i in self.clip:
            x[i] = min(max(u[i] + 0.5, 0.0), 1.0)
        if self.sigmoid:
            for i, c in zip(self.sigmoid, np.tanh([0.5 * u[i] for i in self.sigmoid]).tolist()):
                x[i] = 0.5 * (1.0 + c)
        if self.softmax:
            shifted = []
            for first, stop in self.softmax:
                m = max(u[first:stop])
                shifted += [c - m for c in u[first:stop]]
            e, pos = np.exp(shifted).tolist(), 0
            for first, stop in self.softmax:
                end = pos + stop - first
                s = frozen_add_reduce(e[pos:end])
                x[first:stop] = [c / s for c in e[pos:end]]
                pos = end
        return x


def _frozen_leaves(regs):
    for reg in regs:
        if isinstance(reg, ProductRegularizer):
            yield from _frozen_leaves(reg.blocks)
        else:
            yield reg


class FrozenFloatProduct:
    """PayoffOperator's linear, field and motion on lists, as loops over gathered rows."""

    def __init__(self, game):
        starts = np.cumsum((0,) + tuple(game.strategy_counts)).tolist()
        self.terms = []
        for i, k in enumerate(game.strategy_counts):
            cols = [j for j in range(game.n) if (i, j) in game.payoffs]
            index = [c for j in cols for c in range(starts[j], starts[j + 1])]
            lo, hi = (index[0], index[-1] + 1) if index else (0, 0)
            take = itemgetter(slice(lo, hi)) if hi - lo == len(index) else itemgetter(*index)
            coefs = [[a for j in cols for a in game.payoffs[(i, j)][r].tolist()] for r in range(k)]
            self.terms.append((take, coefs))
        self.drift = None
        if isinstance(game, GeneralizedGame) and game.b:
            drift = np.zeros(starts[-1])
            for (i, j), bv in sorted(game.b.items()):
                drift[starts[i] : starts[i + 1]] += 1.0 * bv
            self.drift = drift.tolist()

    def linear(self, x):
        out = []
        for take, coefs in self.terms:
            v = take(x)
            for row in coefs:
                s = 0.0
                for p in map(mul, row, v):
                    s += p
                out.append(s)
        return out

    def field(self, x):
        out = self.linear(x)
        return out if self.drift is None else [s + b for s, b in zip(out, self.drift)]

    def motion(self, y0, X, t):
        z = self.linear(X)
        if self.drift is None:
            return [a + s for a, s in zip(y0, z)]
        return [a + s + b * t for a, s, b in zip(y0, z, self.drift)]


# Frozen copy of the list loop that the generated single-trajectory loops
# replaced: simulate's step loop, the kernels on lists with their u + h v
# list comprehension, and the blow-up check on lists, run on
# FrozenFloatChoice and FrozenFloatProduct.  A stage point or a kick that
# the choice map rejects as non-finite truncates the run, as it now does.


def _shift_floats(u, h, v):  # u + h v on lists of floats, a new list
    return [a + h * b for a, b in zip(u, v)]


class _FrozenFlow:
    """A single start's flow on the frozen float path."""

    def __init__(self, flow):
        product = FrozenFloatProduct(flow.op.game)
        self.choice, self.field, self.motion = FrozenFloatChoice(flow.choice.leaves), product.field, product.motion
        self.drift, self.sigma = product.drift, flow.op.game.sigma
        self.y0, self.slices, self.limits = flow.y0.tolist(), flow.op.slices, flow.limits

    def kick(self, X, t):
        return self.field(self.choice(self.motion(self.y0, X, t)))


def _frozen_euler(flow, t, y, X, x, force, eta):
    if x is None:
        x = flow.choice(y)
    return _shift_floats(y, eta, flow.field(x)), _shift_floats(X, eta, x), None


def _frozen_rk4(flow, t, y, X, x, force, eta):
    shift = _shift_floats
    sx = flow.choice(y) if x is None else x
    sy = flow.field(sx)
    kx = flow.choice(shift(y, 0.5 * eta, sy))
    ky = flow.field(kx)
    sx = shift(sx, 2.0, kx)
    sy = shift(sy, 2.0, ky)
    ky = shift(y, 0.5 * eta, ky)
    kx = flow.choice(ky)
    ky = flow.field(kx)
    sx = shift(sx, 2.0, kx)
    sy = shift(sy, 2.0, ky)
    ky = shift(y, eta, ky)
    kx = flow.choice(ky)
    sx = shift(sx, 1.0, kx)
    sy = shift(sy, 1.0, flow.field(kx))
    sixth = eta / 6.0
    return shift(y, sixth, sy), shift(X, sixth, sx), None


def _frozen_leapfrog(flow, t, y, X, x, force, eta):
    if flow.sigma not in (-1, 1):
        raise ValueError("no Hamiltonian structure certified: game has no sigma tag")
    half = 0.5 * eta
    if force is None or force[0] != t and flow.drift is not None:
        force = (t, flow.kick(X, t))
    y_half = _shift_floats(y, half, force[1])
    X = _shift_floats(X, eta, flow.choice(y_half))
    force = (t + eta, flow.kick(X, t + eta))
    return _shift_floats(y_half, half, force[1]), X, force


FROZEN_KERNELS = {"euler": _frozen_euler, "rk4": _frozen_rk4, "symplectic_leapfrog": _frozen_leapfrog}


def _frozen_blow_up(y, flow):
    limit = min(flow.limits)
    if all(map(limit.__ge__, map(abs, y))):
        return None
    y = np.asarray(y)
    for agent, (s, limit) in enumerate(zip(flow.slices, flow.limits), 1):
        peak = float(np.abs(y[s]).max())
        if not np.isfinite(peak):
            return "non-finite payoff vector"
        if peak > BLOW_UP_LIMIT:
            return f"|y| exceeded {BLOW_UP_LIMIT:g}"
        if peak > limit:
            return f"agent {agent}: |y| exceeded {limit:g}, past the precision of its euclidean projection"
    return None


def frozen_run(flow, config):
    """The frozen list loop on a 1-D flow: (snapshots (t, y, X, x), steps
    taken, the reason the run ended early or None, the last finite (t, y, X))."""
    f, kernel = _FrozenFlow(flow), FROZEN_KERNELS[config.scheme]
    t, y, X = 0.0, f.y0, [0.0] * len(f.y0)
    x, force = f.choice(y), None
    snaps, i, reason = [(t, y, X, x)], 0, None
    for i in range(1, config.steps + 1):
        try:
            y_next, X_next, force = kernel(f, t, y, X, x, force, config.eta)
        except NonFinitePayoff:
            reason = "non-finite payoff vector"
        else:
            reason = _frozen_blow_up(y_next, f)
        x = None
        if reason is not None:
            break
        t, y, X = i * config.eta, y_next, X_next
        if i % config.stride == 0 or i == config.steps:
            x = f.choice(y)
            snaps.append((t, y, X, x))
    return snaps, i, reason, (t, y, X)


def frozen_snapshots(flow, config):
    """frozen_run's snapshots, ended by the last finite state when a step
    fails off the stride."""
    snaps, i, reason, (t, y, X) = frozen_run(flow, config)
    if reason is not None and (i - 1) % config.stride:
        snaps.append((t, y, X, _FrozenFlow(flow).choice(y)))
    return snaps


@contextlib.contextmanager
def frozen_float_path():
    """simulate steps single starts through the frozen list loop; the block
    fails unless the frozen loop ran."""
    runs = []

    def run_single(flow, config, rows, y, X, x):
        snaps, i, reason, (_, y, X) = frozen_run(flow, config)
        for k, snap in enumerate(snaps[1:], 1):
            for row, v in zip(rows, snap):
                row[k] = v
        runs.append(config)
        return len(snaps), i, reason, y, X

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_run_single", run_single)
        yield
    assert runs, "no single start ran through the frozen loop"


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
        red = reduce_bipartite_to_two_agent(game)  # along the BFS bipartition: side's two colors
        return red.game, red.meta_regularizers(regs), red.meta_vectors(y0)
    return game, regs, y0


@pytest.fixture
def rng():
    return np.random.default_rng(0)
