"""Differential test: the choice maps and payoff operator against frozen copies.

`BlockChoiceMap` maps a list of floats (one trajectory) on Python floats,
and an array with one call per (kind, domain), padding narrower simplex
blocks with -inf; `project_simplex` takes a sort-free path on two
coordinates and sorts many short rows by a compare-exchange network; the
euclidean maps' power-of-two prescales are folded into the scales; and
`PayoffOperator.linear` multiplies each row block into its slice of one
output.  The references below are frozen copies of the code before those
changes, which grouped blocks by (kind, domain, dimension), always sorted
with np.sort, divided by 2 or 4 inside the unit maps and joined the row
blocks' products with np.concatenate.  Outputs must agree bit for bit.

On a list, `PayoffOperator` sums in a fixed order instead of BLAS's, and
`_add_reduce` replays numpy's pairwise sum; both are checked against
explicit loops or numpy itself.
"""

from math import isfinite

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgame import (
    GeneralizedGame,
    NetworkGame,
    ProductRegularizer,
    Regularizer,
    choice_map,
    project_simplex,
)
from hamgame.dynamics import PayoffOperator
from hamgame.regularizers import BlockChoiceMap, _add_reduce

from conftest import MP_MATRIX, zero_sum_from_edges


def _ref_project_simplex(v):
    v = np.asarray(v, dtype=float)
    u = -np.sort(-v, axis=-1)
    k = np.arange(1, v.shape[-1] + 1)
    thresholds = (u.cumsum(axis=-1) - 1.0) / k
    rho = (u > thresholds).sum(axis=-1, keepdims=True)
    # one pick for every shape: tau = 0 where no entry counts toward rho
    tau = np.where(k == rho, thresholds, 0.0).sum(axis=-1, keepdims=True)
    return np.maximum(v - tau, 0.0)


def _ref_softmax(u):
    m = u.max(axis=-1, keepdims=True)
    e = np.exp(u - m)
    return e / e.sum(axis=-1, keepdims=True)


def _ref_sigmoid(u):
    return 0.5 * (1.0 + np.tanh(0.5 * u))


def _ref_project_half(u):
    return _ref_project_simplex(u / 2.0)


def _ref_clip_quarter(u):
    return np.clip(u / 4.0 + 0.5, 0.0, 1.0)


_REF_UNIT = {
    ("entropy", "simplex"): _ref_softmax,
    ("entropy", "box"): _ref_sigmoid,
    ("euclidean", "simplex"): _ref_project_half,
    ("euclidean", "box"): _ref_clip_quarter,
}


def _ref_leaves(regs):
    for reg in regs:
        if isinstance(reg, ProductRegularizer):
            yield from _ref_leaves(reg.blocks)
        else:
            yield reg


class _RefBlockChoiceMap:
    def __init__(self, regs):
        groups, start = {}, 0
        for reg in _ref_leaves(regs):
            width = 1 if reg.domain == "box" else reg.dim
            coords, scales = groups.setdefault((reg.kind, reg.domain, width), ([], []))
            coords.extend(range(start, start + reg.dim))
            scales.extend([reg.scale] * reg.dim)
            start += reg.dim
        plans = []
        for (kind, domain, width), (coords, scales) in groups.items():
            index = np.array(coords)
            if coords == list(range(coords[0], coords[-1] + 1)):
                index = slice(coords[0], coords[-1] + 1)
            scale = None if all(v == 1.0 for v in scales) else np.array(scales)
            shape = (len(coords) // width, width)
            plans.append((index, scale, shape, _REF_UNIT[kind, domain]))
        self.plans = tuple(plans)

    def __call__(self, y):
        if not isfinite(y.sum()):
            raise ValueError("choice map requires finite payoff vector")
        lead = y.shape[:-1]
        parts = []
        for index, scale, shape, unit_map in self.plans:
            u = y[..., index]
            if scale is not None:
                u = u / scale
            parts.append((index, unit_map(u.reshape(lead + shape)).reshape(lead + (-1,))))
        if len(parts) == 1:
            return parts[0][1]
        x = np.empty(y.shape)
        for index, part in parts:
            x[..., index] = part
        return x


class _RefPayoffOperator:
    def __init__(self, game):
        bounds = np.cumsum((0,) + tuple(game.strategy_counts)).tolist()
        slices = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        rows = []
        for i, k in enumerate(game.strategy_counts):
            cols = [j for j in range(game.n) if (i, j) in game.payoffs]
            if not cols:
                rows.append((slice(0, 0), np.zeros((0, k))))
                continue
            if len(cols) == 1:
                rows.append((slices[cols[0]], game.payoffs[(i, cols[0])].T))
                continue
            lo, hi = slices[cols[0]].start, slices[cols[-1]].stop
            block = np.zeros((k, hi - lo))
            for j in cols:
                s = slices[j]
                block[:, s.start - lo : s.stop - lo] = game.payoffs[(i, j)]
            rows.append((slice(lo, hi), block.T))
        self.rows = tuple(rows)

    def linear(self, x):
        return np.concatenate([x[..., span] @ mt for span, mt in self.rows], axis=-1)


def _ref_choice_map(reg, y):
    y = np.asarray(y, dtype=float)
    if isinstance(reg, ProductRegularizer):
        return _RefBlockChoiceMap(reg.blocks)(y)
    return _REF_UNIT[reg.kind, reg.domain](y if reg.scale == 1.0 else y / reg.scale)


# ---------------------------------------------------------------------------

SCALES = st.sampled_from([1.0, 1e-3, 0.37, 0.5, 2.0, 3.1, 1e3])


@st.composite
def regularizers(draw):
    """A list of agents' regularizers: mixed kinds and domains, some products."""

    def leaf():
        domain = draw(st.sampled_from(["simplex", "box"]))
        dim = draw(st.integers(1, 12) if domain == "simplex" else st.integers(1, 3))
        return Regularizer(draw(st.sampled_from(["entropy", "euclidean"])), domain, dim, draw(SCALES))

    regs = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            regs.append(ProductRegularizer(tuple(leaf() for _ in range(draw(st.integers(1, 3))))))
        else:
            regs.append(leaf())
    return regs


@st.composite
def payoffs(draw, lead, dim):
    """Payoff arrays with magnitudes up to 1e6, exact ties and signed zeros."""
    size = int(np.prod(lead + (dim,)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = draw(st.sampled_from([1e-6, 1e-2, 1.0, 10.0, 1e3, 1e6]))
    y = magnitude * rng.normal(size=size)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, magnitude])
    ties = rng.uniform(size=size) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    y[ties] = rng.choice(pool, size=int(ties.sum()))
    head = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=min(size, 8)))
    y[: len(head)] = head
    return y.reshape(lead + (dim,))


def _layouts(y):
    """The array itself, plus an F-ordered copy and a strided view when batched."""
    yield y
    if y.ndim > 1:
        yield np.asfortranarray(y)
        wide = np.zeros(y.shape[:-1] + (2 * y.shape[-1],))
        wide[..., ::2] = y
        yield wide[..., ::2]


@settings(max_examples=300, deadline=None)
@given(regs=regularizers(), lead=st.sampled_from([(), (3,), (2000,)]), data=st.data())
def test_block_choice_map_matches_frozen_copy(regs, lead, data):
    dim = sum(r.dim for r in regs)
    y = data.draw(payoffs(lead, dim))
    block, ref = BlockChoiceMap(regs), _RefBlockChoiceMap(regs)
    for v in _layouts(y):
        x, expected = block(v), ref(v)
        assert x.shape == v.shape
        assert x.flags.c_contiguous  # a matmul on an F-ordered x sums in another order
        np.testing.assert_array_equal(x, expected)
        assert np.array_equal(np.signbit(x), np.signbit(expected))
    if lead == ():  # one trajectory's list of floats
        x = block(y.tolist())
        assert type(x) is list and all(type(c) is float for c in x)
        _assert_same_bits(np.array(x), ref(y))
    start = 0
    for reg in regs:
        part = y[..., start : start + reg.dim]
        np.testing.assert_array_equal(choice_map(reg, part), _ref_choice_map(reg, part))
        start += reg.dim


def _assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64)), (a, b)


# project_simplex sorts by a network from 96 rows at width 3 to 672 at
# width 7: leads on both sides of each
LEADS = [(), (3,), (95,), (96,), (48, 2), (191,), (320,), (479,), (671,), (672,), (2000,)]


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 7), lead=st.sampled_from(LEADS), data=st.data())
def test_project_simplex_matches_frozen_copy(dim, lead, data):
    v = data.draw(payoffs(lead, dim))
    for w in _layouts(v):
        out, ref = project_simplex(w), _ref_project_simplex(w)
        np.testing.assert_array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))


@pytest.mark.parametrize("rows", [95, 96, 671, 672, 2000])
@pytest.mark.parametrize("width", [3, 4, 5, 6, 7])
def test_project_simplex_padded_batch(width, rows):
    # rows padded with -inf as BlockChoiceMap pads narrow blocks, with ties
    rng = np.random.default_rng(100 * width + rows)
    v = rng.normal(size=(rows, width)) * rng.choice([1e-3, 1.0, 1e6], size=(rows, 1))
    v[rng.uniform(size=v.shape) < 0.2] = 0.5
    v[:, 1:][np.arange(1, width) >= rng.integers(1, width + 1, size=(rows, 1))] = -np.inf
    for w in _layouts(v):
        out, ref = project_simplex(w), _ref_project_simplex(w)
        np.testing.assert_array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
    np.testing.assert_allclose(project_simplex(v).sum(axis=-1), 1.0)


def _assert_rows_match_batch(v):
    out = project_simplex(v)
    for row, want in zip(v, out):
        got = project_simplex(row)
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 12),
    lead=st.sampled_from([(1,), (3,), (700,)]),
    big=st.sampled_from([1.0, 1e17]),
    data=st.data(),
)
def test_project_simplex_row_equals_batch(width, lead, big, data):
    # at 1e17 many rows have no entry that counts toward rho (c - 1 == c)
    _assert_rows_match_batch(big * data.draw(payoffs(lead, width)))


def test_project_simplex_row_equals_batch_where_nothing_counts():
    v = np.array([[1e17, 5.0, 3.0]])  # rho = 0: tau is 0.0 for the row and the batch
    _assert_rows_match_batch(v)
    np.testing.assert_array_equal(project_simplex(v[0]), v[0])


def test_two_coordinate_ties_and_signed_zeros():
    v = np.array([[0.0, -0.0], [-0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [-3.0, 4.0], [2.0, -1.0]])
    for w in (v, v[0], v[2], v[4]):
        np.testing.assert_array_equal(project_simplex(w), _ref_project_simplex(w))


def test_wide_blocks_group_by_dimension():
    # numpy sums 8 or more terms pairwise, so -inf padding past 8 columns
    # would reorder the softmax sum; such blocks keep a group per dimension.
    # A list sums such a block in numpy's pairwise order (_add_reduce)
    regs = [Regularizer("entropy", "simplex", d, 0.7) for d in (2, 7, 8, 9, 12, 5)]
    rng = np.random.default_rng(4)
    y = 3.0 * rng.normal(size=(500, sum(r.dim for r in regs)))
    for v in (*_layouts(y), y[0], y[1]):
        np.testing.assert_array_equal(BlockChoiceMap(regs)(v), _RefBlockChoiceMap(regs)(v))
    for v in y[:50]:
        _assert_same_bits(BlockChoiceMap(regs)(v.tolist()), _RefBlockChoiceMap(regs)(v))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("lead", [(), (4,)])
def test_non_finite_input_raises(bad, lead):
    regs = [Regularizer("entropy", dim=3), Regularizer("euclidean", dim=2, scale=0.5)]
    y = np.zeros(lead + (5,))
    y[..., 1] = bad
    with pytest.raises(ValueError, match="finite"):
        BlockChoiceMap(regs)(y)
    if lead == ():  # one trajectory's list of floats
        with pytest.raises(ValueError, match="finite"):
            BlockChoiceMap(regs)(y.tolist())


def test_overflowing_sum_raises_on_both_paths():
    # finite entries whose sum overflows: the check is numpy's sum, in numpy's order
    regs = [Regularizer("entropy", dim=3), Regularizer("euclidean", dim=2, scale=0.5)]
    y = np.array([1e308, 1e308, 0.0, -1e308, 0.0])
    for v in (y, y.tolist()):
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            BlockChoiceMap(regs)(v)


def test_add_reduce_matches_numpy():
    # below 8 terms, 8 to 128 (eight running sums) and above 128 (halves),
    # with overflow partway, signed zeros and cancellation
    rng = np.random.default_rng(12)
    for width in range(1, 301):
        signs = rng.choice([-1.0, 1.0], size=width)
        cases = [
            rng.normal(size=width) * 10.0 ** rng.uniform(-20, 20, size=width),
            signs * rng.uniform(0.5, 1.0, size=width) * 1.7e308,
            rng.choice([0.0, -0.0, 1e308, -1e308, 1.0, -1.0, 5e-324], size=width),
            np.where(rng.uniform(size=width) < 0.5, 0.0, -0.0),
            np.full(width, -0.0),
        ]
        for v in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.add.reduce(v, axis=None)
            got = _add_reduce(v.tolist())
            assert type(got) is float
            if np.isnan(want):
                assert np.isnan(got), (width, v)
            else:
                _assert_same_bits(got, want)


def _affine_box_game(rng):
    counts, spaces = (1, 3, 1, 2), ("box", "simplex", "box", "simplex")
    payoffs = {}
    for i, j in [(0, 1), (1, 2), (2, 3), (0, 2)]:
        a = rng.normal(size=(counts[i], counts[j]))
        payoffs[(i, j)], payoffs[(j, i)] = a, -a.T
    b = {(0, 1): rng.normal(size=1), (2, 3): rng.normal(size=1), (3, 2): rng.normal(size=2)}
    return GeneralizedGame(counts, payoffs, sigma=-1, b=b, spaces=spaces)


GAMES = {
    "matching_pennies": lambda rng: NetworkGame((2, 2), {(0, 1): MP_MATRIX, (1, 0): -MP_MATRIX.T}, sigma=-1),
    "two_agent_3x4": lambda rng: zero_sum_from_edges((3, 4), [(0, 1)], rng),
    # the cloud benchmark's shape: a four-agent ring plus one chord
    "ring_plus_chord": lambda rng: zero_sum_from_edges((3, 2, 4, 3), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], rng),
    "isolated_agent": lambda rng: zero_sum_from_edges((2, 3, 2), [(0, 2)], rng),
    "affine_box": _affine_box_game,
}


@pytest.mark.parametrize("lead", [(), (1,), (3,), (2000,), (4, 5)])
@pytest.mark.parametrize("name", sorted(GAMES))
def test_payoff_operator_matches_frozen_copy(name, lead):
    rng = np.random.default_rng(7)
    game = GAMES[name](rng)
    op, ref = PayoffOperator(game), _RefPayoffOperator(game)
    x = rng.uniform(size=lead + (sum(game.strategy_counts),)) * rng.choice([1e-3, 1.0, 1e6])
    for v in _layouts(x):
        out, expected = op.linear(v), ref.linear(v)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))


def _ref_linear_floats(game, x):
    """x @ M' on a list as an explicit loop: s = 0.0, then s += A[i, j][r, c] * x_j[c]
    over neighbours j, then columns c, in ascending order."""
    starts = np.cumsum((0,) + tuple(game.strategy_counts)).tolist()
    out = []
    for i, k in enumerate(game.strategy_counts):
        for r in range(k):
            s = 0.0
            for j in range(game.n):
                a = game.payoffs.get((i, j))
                if a is not None:
                    for c in range(a.shape[1]):
                        s += float(a[r, c]) * x[starts[j] + c]
            out.append(s)
    return out


@pytest.mark.parametrize("name", sorted(GAMES))
def test_float_payoff_product_fixed_order(name):
    rng = np.random.default_rng(7)
    game = GAMES[name](rng)
    op = PayoffOperator(game)
    drift = np.zeros(op.dim) if op.drift is None else op.drift
    for scale in (1e-3, 1.0, 1e6):
        x = scale * rng.uniform(-1.0, 1.0, size=(50, op.dim))
        x[:5] = np.where(rng.uniform(size=(5, op.dim)) < 0.5, 0.0, -0.0)
        y0, t = rng.normal(size=op.dim), float(rng.uniform(0.0, 10.0))
        rows = []
        for v in x:
            got = op.linear(v.tolist())
            assert type(got) is list and all(type(c) is float for c in got)
            want = _ref_linear_floats(game, v.tolist())
            _assert_same_bits(got, want)
            _assert_same_bits(op.field(v.tolist()), np.array(want) + drift)
            _assert_same_bits(op.motion(y0.tolist(), v.tolist(), t), y0 + np.array(want) + drift * t)
            rows.append(got)
        # against BLAS on the batch, the product the list path replaces
        np.testing.assert_allclose(np.array(rows), op.linear(x), rtol=1e-13, atol=1e-13 * scale)
