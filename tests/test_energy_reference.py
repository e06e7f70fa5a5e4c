"""Differential test: the energy formula against the closed forms it replaced.

The reference below is a frozen copy of the earlier hand-written energies:
one function per variant with its own loops over the edge dictionaries,
the canonical reading of the structure check, and the check itself.  Its
reconstructed motions and payoff field are the per-agent oracles of
conftest, so it shares no arithmetic with the code under test, which
evaluates one formula whose variants are data.  On two-agent games both do
the same operations, so the readings must agree bit for bit; elsewhere
sums over several edges run in another order, and the readings must agree
within 1e-12.  The structure check's residuals are central differences
(up - down) / 2h with h >= 1e-6, which divide the rounding differences of
the readings by 2h: readings that agree within 1e-14 give residuals that
agree within 1e-8.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgame import (
    GeneralizedGame,
    NetworkGame,
    Regularizer,
    bipartite_partition,
    choice_map,
    conjugate_value,
    verify_hamiltonian_structure,
)
from hamgame import hamiltonian
from hamgame.dynamics import PayoffOperator

from conftest import _ref_field, _ref_motion, consistent_point

TOL = 1e-12
RESIDUAL_TOL = 1e-8


def _ref_partition_sides(game, partition):
    side_one, side_two = tuple(partition[0]), tuple(partition[1])
    if sorted(side_one + side_two) != list(range(game.n)):
        raise ValueError("partition invalid: must cover every agent exactly once")
    for side in (set(side_one), set(side_two)):
        for (i, j), a in game.payoffs.items():
            if i in side and j in side and np.any(a):
                raise ValueError(f"partition invalid: nonzero edge ({i}, {j}) inside a side")
    return side_one, side_two


def _ref_kinetic(regs, ys, agents):
    return sum(conjugate_value(regs[i], ys[i]) for i in agents)


def _ref_linear_correction(game, X, agents_i, agents_j):
    total = 0.0
    for i in agents_i:
        for j in agents_j:
            if j == i:
                continue
            bv = game.b.get((i, j))
            if bv is not None:
                total = total + np.sum(bv * X[i], axis=-1)
    return total


def _ref_one_sided_potential(state, game, regs, side_one, side_two, drift):
    pot = 0.0
    for j in side_two:
        z = np.asarray(state.y0[j], dtype=float)
        for i in side_one:
            a = game.payoffs.get((j, i))
            if a is not None:
                z = z + state.X[i] @ a.T
            bv = game.b.get((j, i)) if drift else None
            if bv is not None:
                z = z + bv * state.t
        pot = pot - game.sigma * conjugate_value(regs[j], z)
    return pot


def _ref_energy(variant, state, game, regs, partition=None):
    """(value, kinetic, potential, correction) of the conserved reading."""
    if variant == "two_agent":
        z2 = state.y0[1] + state.X[0] @ game.matrix(1, 0).T
        kin = conjugate_value(regs[0], state.y[0])
        pot = -game.sigma * conjugate_value(regs[1], z2)
        return kin + pot, kin, pot, 0.0
    if variant in ("network", "generalized"):
        agents = range(game.n)
        kin = _ref_kinetic(regs, state.y, agents)
        zs = _ref_motion(game, state.y0, state.X, state.t)
        pot = -game.sigma * sum(conjugate_value(regs[j], zs[j]) for j in agents)
        if variant == "network":
            return kin + pot, kin, pot, 0.0
        corr = -(1 - game.sigma) * _ref_linear_correction(game, state.X, agents, agents)
        return kin + pot + corr, kin, pot, corr
    side_one, side_two = _ref_partition_sides(game, partition)
    kin = _ref_kinetic(regs, state.y, side_one)
    if variant == "bipartite":
        pot = _ref_one_sided_potential(state, game, regs, side_one, side_two, drift=False)
        return kin + pot, kin, pot, 0.0
    pot = _ref_one_sided_potential(state, game, regs, side_one, side_two, drift=True)
    corr = -_ref_linear_correction(game, state.X, side_one, side_two)
    corr = corr + game.sigma * _ref_linear_correction(game, state.X, side_two, side_one)
    return kin + pot + corr, kin, pot, corr


def _ref_canonical(variant, state, game, regs, partition):
    if variant == "generalized":
        agents = range(game.n)
        kin = _ref_kinetic(regs, state.y, agents)
        zs = _ref_motion(game, state.y0, state.X, state.t)
        pot = -game.sigma * sum(conjugate_value(regs[j], zs[j]) for j in agents)
        return kin + pot - _ref_linear_correction(game, state.X, agents, agents)
    if variant == "generalized_bipartite":
        side_one, side_two = partition
        kin = _ref_kinetic(regs, state.y, side_one)
        pot = _ref_one_sided_potential(state, game, regs, side_one, side_two, drift=True)
        return kin + pot - _ref_linear_correction(game, state.X, side_one, side_two)
    return _ref_energy(variant, state, game, regs, partition)[0]


def _ref_structure(state, game, regs, variant, partition, fd_step=1e-6):
    """(residual_position, residual_motion) of the earlier structure check."""
    for reg, xv in zip(regs, state.x):
        if reg.kind == "entropy" and np.min(xv) < 1e-8:
            raise ValueError("too close to the boundary for stable differencing")
    if variant == "two_agent":
        tracked = (0,)
    elif variant in ("bipartite", "generalized_bipartite"):
        tracked = tuple(partition[0])
    else:
        tracked = tuple(range(game.n))

    def value(ys, Xs):
        probe = replace(state, y=tuple(ys), X=tuple(Xs))
        return float(_ref_canonical(variant, probe, game, regs, partition))

    dX, dy = state.x, _ref_field(game, state.x)
    res_pos = res_mot = 0.0
    ys = [np.array(v, dtype=float) for v in state.y]
    Xs = [np.array(v, dtype=float) for v in state.X]
    for i in tracked:
        for c in range(ys[i].shape[-1]):
            h = fd_step * max(1.0, abs(ys[i][c]))
            ys[i][c] += h
            up = value(ys, Xs)
            ys[i][c] -= 2.0 * h
            down = value(ys, Xs)
            ys[i][c] += h
            res_pos = max(res_pos, abs((up - down) / (2.0 * h) - dX[i][c]))

            h = fd_step * max(1.0, abs(Xs[i][c]))
            Xs[i][c] += h
            up = value(ys, Xs)
            Xs[i][c] -= 2.0 * h
            down = value(ys, Xs)
            Xs[i][c] += h
            res_mot = max(res_mot, abs((up - down) / (2.0 * h) + dy[i][c]))
    return res_pos, res_mot


def _random_game(family, counts, rng):
    """A random sigma-tagged game of the family, affine for "affine" and half the bipartite ones."""
    n = len(counts)
    sigma = {"zero_sum": -1, "coordination": 1}.get(family) or int(rng.choice([-1, 1]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if family == "bipartite":
        edges = [(i, j) for i, j in pairs if i % 2 != j % 2]
    else:
        edges = [e for e in pairs if rng.uniform() < 0.7] or pairs[:1]
    payoffs = {}
    for i, j in edges:
        a = rng.normal(size=(counts[i], counts[j]))
        payoffs[(i, j)] = a
        payoffs[(j, i)] = sigma * a.T
    if family == "affine" or (family == "bipartite" and rng.uniform() < 0.5):
        ordered = [(i, j) for i in range(n) for j in range(n) if i != j]
        b = {e: rng.normal(size=counts[e[0]]) for e in ordered if rng.uniform() < 0.6}
        spaces = tuple(str(s) for s in rng.choice(["simplex", "box"], size=n))
        game = GeneralizedGame(tuple(counts), payoffs, sigma=sigma, b=b, spaces=spaces)
    else:
        spaces = ("simplex",) * n
        game = NetworkGame(tuple(counts), payoffs, sigma=sigma)
    regs = tuple(
        Regularizer(str(kind), domain=space, dim=k, scale=float(scale))
        for kind, space, k, scale in zip(
            rng.choice(["entropy", "euclidean"], size=n), spaces, counts,
            rng.choice([1.0, 0.5, 2.0], size=n),
        )
    )
    return game, regs


@dataclass(frozen=True)
class _AgentViews:
    """A phase-space point as the reference reads it: per-agent y, X, x and y0 at time t."""

    t: float
    y: tuple
    X: tuple
    x: tuple
    y0: tuple


def _random_state(game, regs, rng, batch):
    """A random consistent point: flat (y, X, y0, t), and the same point as _AgentViews."""
    lead = () if batch is None else (batch,)
    t = float(rng.uniform(0.1, 1.0))
    y0 = tuple(0.4 * rng.normal(size=lead + (k,)) for k in game.strategy_counts)
    X = tuple(t * rng.dirichlet(np.ones(k), size=lead or None) for k in game.strategy_counts)
    y, X, y0 = consistent_point(game, y0, X, t)
    split = PayoffOperator(game).split
    x = tuple(choice_map(reg, v) for reg, v in zip(regs, split(y)))
    return (y, X, y0, t), _AgentViews(t, split(y), split(X), x, split(y0))


def _variants(game):
    partition = bipartite_partition(game)
    out = ["network"] + ["two_agent"] * (game.n == 2)
    if partition is not None:
        out.append("bipartite")
    if isinstance(game, GeneralizedGame):
        out += ["generalized"] + ["generalized_bipartite"] * (partition is not None)
    return out, partition


def _agree(got, want, exact, tol=TOL):
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["zero_sum", "coordination", "affine", "bipartite"]),
    counts=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([None, 3]),
)
def test_energies_match_closed_forms(family, counts, seed, batch):
    rng = np.random.default_rng(seed)
    game, regs = _random_game(family, counts, rng)
    point, state = _random_state(game, regs, rng, batch)
    variants, partition = _variants(game)
    exact = game.n == 2
    for variant in variants:
        reading = hamiltonian.energy_of(hamiltonian.ReadingsPlan(game, regs, variant), *point)
        want = _ref_energy(variant, state, game, regs, partition)
        assert reading.variant == variant
        for got, ref in zip((reading.value, reading.kinetic, reading.potential, reading.correction), want):
            _agree(got, ref, exact)
        plan = hamiltonian.ReadingsPlan(game, regs, variant, canonical=True)
        canonical = hamiltonian.energy_of(plan, *point)
        _agree(canonical.value, _ref_canonical(variant, state, game, regs, partition), exact)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["zero_sum", "coordination", "affine", "bipartite"]),
    counts=st.lists(st.integers(1, 3), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_structure_residuals_match(family, counts, seed):
    rng = np.random.default_rng(seed)
    game, regs = _random_game(family, counts, rng)
    (_, X, y0, t), state = _random_state(game, regs, rng, None)
    variants, partition = _variants(game)
    for variant in variants:
        try:
            want = _ref_structure(state, game, regs, variant, partition)
        except ValueError:
            with pytest.raises(ValueError):
                verify_hamiltonian_structure(game, regs, y0, X, t, variant)
            continue
        report = verify_hamiltonian_structure(game, regs, y0, X, t, variant)
        _agree((report.residual_position, report.residual_motion), want, game.n == 2, RESIDUAL_TOL)
