"""Differential test: H, F and D read once per run on stacked snapshots.

`simulate`, `fenchel_bregman_series` and `monotone_energy_check` read the
instruments on (snapshots, batch..., D) stacks.  The reference below is a
frozen copy of the earlier readers, which went one snapshot and one agent
at a time: simulate's per-snapshot reader, the analysis module's
per-snapshot series with its try/except, and the monotone check's loop.
The entropy gradient rule is frozen with them, since it decides where D
is unavailable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgame import (
    IntegratorConfig,
    NetworkGame,
    ProductRegularizer,
    conjugate_value,
    default_regularizers,
    fenchel_bregman_series,
    fenchel_coupling,
    h_value,
    monotone_energy_check,
    select_energy,
    simulate,
)

from conftest import MP_MATRIX, _random_case, _ref_choice

TOL = 1e-12


def _ref_gradient(reg, x):
    if isinstance(reg, ProductRegularizer):
        return np.concatenate([_ref_gradient(b, x[..., s]) for b, s in reg.slices()], axis=-1)
    if reg.domain == "simplex":
        bad = (np.abs(np.sum(x, axis=-1) - 1.0) > 1e-9) | np.any(x < -1e-9, axis=-1)
    else:
        bad = np.any((x < -1e-9) | (x > 1.0 + 1e-9), axis=-1)
    if np.any(bad):
        raise ValueError("point outside domain")
    if reg.kind == "entropy":
        if reg.domain == "simplex":
            if np.any(x <= 0.0):
                raise ValueError("gradient undefined on boundary (zero coordinate)")
            return reg.scale * (1.0 + np.log(x))
        if np.any((x <= 0.0) | (x >= 1.0)):
            raise ValueError("gradient undefined on boundary (coordinate at 0 or 1)")
        return reg.scale * (np.log(x) - np.log(1.0 - x))
    if reg.domain == "simplex":
        return 2.0 * reg.scale * x
    return reg.scale * (4.0 * x - 2.0)


def _ref_bregman(reg, x_ref, x):
    grad = _ref_gradient(reg, x)
    return h_value(reg, x_ref) - h_value(reg, x) - np.sum(grad * (x_ref - x), axis=-1)


def _ref_read(game, regs, ref, traj):
    """simulate's former per-snapshot reader: H, then F, then D under try/except."""
    energy_fn, _ = select_energy(game, regs, "auto")
    y0 = np.concatenate(traj.states[0].y0, axis=-1)
    H, F, D = [], [], []
    for state in traj.states:
        y, X = np.concatenate(state.y, axis=-1), np.concatenate(state.X, axis=-1)
        H.append(energy_fn(y, X, y0, state.t).value if energy_fn is not None else np.nan)
        F.append(sum(fenchel_coupling(reg, xr, yv) for reg, xr, yv in zip(regs, ref, state.y)))
        try:
            D.append(sum(_ref_bregman(reg, xr, xv) for reg, xr, xv in zip(regs, ref, state.x)))
        except ValueError:
            D.append(np.nan)
    return H, F, D


def _ref_per_snapshot(traj, regs, ref, func, use_y):
    """The analysis module's former per-snapshot series."""
    values = []
    for state in traj.states:
        vecs = state.y if use_y else state.x
        try:
            values.append(sum(func(reg, xr, v) for reg, xr, v in zip(regs, ref, vecs)))
        except ValueError:
            values.append(np.nan)
    return values


def _ref_monotone(traj, regs):
    H = np.array([sum(conjugate_value(reg, yv) for reg, yv in zip(regs, s.y)) for s in traj.states])
    diffs = np.diff(H, axis=0)
    max_decrease = float(max(0.0, -np.min(diffs))) if diffs.size else 0.0
    total = float(np.sum(np.maximum(diffs, 0.0))) if diffs.size else 0.0
    return max_decrease, total


def _close(got, want):
    """Row by row: the per-snapshot readers give one NaN for a whole unavailable batched row.

    Stacked into one array, such a row made the old readers fail on batched
    runs that mixed available and unavailable rows.
    """
    assert len(got) == len(want)
    for g, w in zip(np.asarray(got, dtype=float), want):
        w = np.broadcast_to(np.asarray(w, dtype=float), g.shape)
        np.testing.assert_array_equal(np.isnan(g), np.isnan(w))  # NaN on the same rows
        np.testing.assert_allclose(g, w, rtol=TOL, atol=TOL)


def _check_against_reference(game, regs, y0, ref, config):
    traj = simulate(game, regs, y0, config, ref=ref)
    bare = simulate(game, regs, y0, config, energy="none")
    assert len(traj.states) == len(bare.states)
    for got, plain in zip(traj.states, bare.states):  # reading leaves the states as stepped
        assert got.t == plain.t
        for a, b in zip(got.y + got.X + got.x, plain.y + plain.X + plain.x):
            np.testing.assert_array_equal(a, b)

    H, F, D = _ref_read(game, regs, ref, traj)
    _close(traj.energy, H)
    _close(traj.fenchel, F)
    _close(traj.bregman, D)

    series = fenchel_bregman_series(traj, game, regs, ref)
    _close(series.fenchel, _ref_per_snapshot(traj, regs, ref, fenchel_coupling, use_y=True))
    _close(series.bregman, _ref_per_snapshot(traj, regs, ref, _ref_bregman, use_y=False))

    if config.scheme == "euler" and game.sigma == -1:
        mono = monotone_energy_check(traj, game, regs)
        max_decrease, total = _ref_monotone(traj, regs)
        assert mono.max_decrease == pytest.approx(max_decrease, rel=TOL, abs=TOL)
        assert mono.total_increase == pytest.approx(total, rel=TOL, abs=TOL)
    return traj


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["zero_sum", "coordination", "affine", "bipartite_fold"]),
    counts=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([None, 3]),
    scheme=st.sampled_from(["euler", "rk4", "symplectic_leapfrog"]),
    eta=st.sampled_from([0.01, 0.05]),
    steps=st.integers(1, 12),
    stride=st.integers(1, 5),
    push=st.sampled_from([0.0, 800.0]),
)
def test_stacked_readings_match_per_snapshot_reader(
    family, counts, seed, batch, scheme, eta, steps, stride, push
):
    if family == "bipartite_fold" and len(counts) < 3:
        counts = counts + [2]
    game, regs, y0 = _random_case(family, counts, seed, batch)
    # a push of 800 on one coordinate puts an entropy agent on its boundary
    first = np.array(y0[0], dtype=float)
    first[..., 0] += push
    y0 = (first,) + tuple(y0[1:])
    rng = np.random.default_rng(seed)
    ref = tuple(_ref_choice(reg, rng.normal(size=reg.dim)) for reg in regs)
    _check_against_reference(game, regs, y0, ref, IntegratorConfig(scheme, eta, steps * eta, stride))


@pytest.mark.parametrize("batch", [None, 2])
@pytest.mark.parametrize("scheme", ["euler", "rk4", "symplectic_leapfrog"])
def test_softmax_underflow_gives_nan_rows(batch, scheme):
    """Softmax underflows to a pure strategy early in the run and leaves it later."""
    a = 200.0 * MP_MATRIX
    game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
    regs = default_regularizers(game, "entropy")
    y0 = (np.array([760.0, 0.0]), np.array([0.0, 0.0]))
    if batch is not None:  # one pushed start and one interior start
        y0 = (np.stack([y0[0], np.zeros(2)]), np.stack([y0[1], np.zeros(2)]))
    ref = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    traj = _check_against_reference(game, regs, y0, ref, IntegratorConfig(scheme, 0.01, 0.4, 1))
    nan = np.isnan(traj.bregman)
    assert nan.shape[0] == len(traj.states)
    assert nan[0].all() and not nan[-1].any()
    assert not np.isnan(traj.fenchel).any()
