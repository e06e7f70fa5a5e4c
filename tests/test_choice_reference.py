"""Differential test: the choice maps and payoff operator against frozen copies.

`BlockChoiceMap` maps a coordinate-major array (axis 0 the coordinates)
block by block on its rows, a (batch..., D) array through a transposed
view; `project_simplex` takes a sort-free path on two
coordinates and sorts many short rows by a compare-exchange network; the
euclidean maps' power-of-two prescales are folded into the scales; and
`PayoffOperator.linear` multiplies each row block into its slice of one
output.  The references below are frozen copies of the code before those
changes, which grouped blocks by (kind, domain, dimension), always sorted
with np.sort, divided by 2 or 4 inside the unit maps and joined the row
blocks' products with np.concatenate.  Outputs must agree bit for bit.

One trajectory steps in straight-line code generated per game from two
fragments, `choice_lines` and `product_lines`, here defined as functions
on lists of floats (conftest `float_choice` and `FloatProduct`).  The
product sums in a fixed order instead of BLAS's, and the choice map's sums
replay numpy's pairwise order; both are checked against explicit loops or
numpy itself, and bit for bit against the frozen float path of conftest
(per-block loops and a loop product) that the generated code replaced.
"""

from math import isfinite

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamgame import (
    GeneralizedGame,
    IntegratorConfig,
    NetworkGame,
    ProductRegularizer,
    Regularizer,
    choice_map,
    project_simplex,
    simulate,
)
from hamgame.dynamics import PayoffOperator, _loop
from hamgame.hamiltonian import ReadingsPlan, energy_of
from hamgame.regularizers import BlockChoiceMap, _add_reduce_source, define

from conftest import (
    MP_MATRIX,
    FloatProduct,
    FrozenFloatChoice,
    FrozenFloatProduct,
    float_choice,
    frozen_add_reduce,
    zero_sum_from_edges,
)


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


def _ref_blocks(regs, y):
    """The frozen unit maps on each leaf's block of y alone, side by side."""
    leaves = list(_ref_leaves(regs))
    bounds = np.cumsum([0] + [r.dim for r in leaves])
    return np.concatenate([_ref_choice_map(r, y[..., a:b]) for r, a, b in zip(leaves, bounds, bounds[1:])], axis=-1)


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


def _mapped(block, y):
    """BlockChoiceMap on a (batch..., D) array, through its coordinate-major view."""
    return np.moveaxis(block(np.moveaxis(y, -1, 0)), 0, -1)


@settings(max_examples=300, deadline=None)
@given(regs=regularizers(), lead=st.sampled_from([(), (3,), (2000,)]), data=st.data())
def test_block_choice_map_matches_frozen_copy(regs, lead, data):
    dim = sum(r.dim for r in regs)
    y = data.draw(payoffs(lead, dim))
    block, ref = BlockChoiceMap(regs), _RefBlockChoiceMap(regs)
    # every block as the frozen map maps it alone on the C-ordered array, for
    # every layout: the frozen map gathered same-dimension blocks of 8 or
    # more into an F-ordered copy, whose softmax sums ran in order, not
    # pairwise as the block alone (and choice_lines) sums them
    expected = _ref_blocks(regs, y)
    for v in _layouts(y):
        # each layout's coordinate-major view, and the C-ordered (D, batch...)
        # array that batched runs step on
        for rows in (np.moveaxis(v, -1, 0), np.ascontiguousarray(np.moveaxis(v, -1, 0))):
            x = block(rows)
            assert x.shape == rows.shape
            if rows.flags.c_contiguous:
                assert x.flags.c_contiguous  # a matmul on an F-ordered x sums in another order
            x = np.moveaxis(x, 0, -1)
            np.testing.assert_array_equal(x, expected)
            assert np.array_equal(np.signbit(x), np.signbit(expected))
    if lead == ():  # one trajectory's list of floats, through the loops' fragment
        x = float_choice(regs)(y.tolist())
        assert type(x) is list and all(type(c) is float for c in x)
        _assert_same_bits(np.array(x), ref(y))
    start = 0
    for reg in regs:
        part = y[..., start : start + reg.dim]
        np.testing.assert_array_equal(choice_map(reg, part), _ref_choice_map(reg, part))
        start += reg.dim


def _assert_same_bits(a, b, any_nan=False):
    """The same bits, signed zeros and infinities included; with any_nan,
    a nan matches a nan of either sign or payload."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    both = np.isnan(a) & np.isnan(b) if any_nan else False
    assert np.array_equal(np.where(both, 0, a.view(np.int64)), np.where(both, 0, b.view(np.int64))), (a, b)


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
    # rows padded with -inf, which sorts last and never counts, with ties
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


def _euclid(dim, scale=1.0):
    return Regularizer("euclidean", "simplex", dim, scale)


# euclidean simplex blocks of one, two and three to seven coordinates, beside
# each other and inside products
MIXED_WIDTHS = [
    [_euclid(1), _euclid(2), _euclid(3)],
    [_euclid(2, 0.37), ProductRegularizer((_euclid(5), _euclid(1, 3.1))), _euclid(7, 0.5)],
    [ProductRegularizer((_euclid(2), _euclid(4, 2.0))), _euclid(1), Regularizer("entropy", "simplex", 3),
     Regularizer("euclidean", "box", 2), _euclid(6, 1e-3)],
]


@pytest.mark.parametrize("magnitude", [1.0, 1e6, 1e16, 1e18])
@pytest.mark.parametrize("case", range(len(MIXED_WIDTHS)))
def test_game_choice_map_is_its_leaves_maps(case, magnitude):
    # each block's rule follows from its own kind, domain and width, so the
    # whole map, each leaf's map alone and the loops' fragment give the same
    # bits at every scale, far past payoff_limit too (|y| / (2 s) >= 2^53)
    regs = MIXED_WIDTHS[case]
    leaves = [b for r in regs for b in (r.blocks if isinstance(r, ProductRegularizer) else (r,))]
    bounds = np.cumsum([0] + [r.dim for r in leaves]).tolist()
    rng = np.random.default_rng(10 * case + int(np.log10(magnitude)))
    y = magnitude * rng.normal(size=(bounds[-1], 200))  # (D, n): columns are starts
    y[rng.uniform(size=y.shape) < 0.1] = -0.0
    y[:, :20] = np.round(y[:, :20] / magnitude) * magnitude  # exact ties
    block, choice = BlockChoiceMap(regs), float_choice(regs)
    batch = block(y)
    side_by_side = np.concatenate([choice_map(r, y.T[:, a:b]) for r, a, b in zip(leaves, bounds, bounds[1:])], axis=-1)
    _assert_same_bits(batch, side_by_side.T, any_nan=True)
    for column, want in zip(y.T, batch.T):
        _assert_same_bits(block(column), want, any_nan=True)
        _assert_same_bits(choice(column.tolist()), want, any_nan=True)


def test_wide_blocks_group_by_dimension():
    # numpy sums 8 or more terms of a contiguous row pairwise, and any other
    # row in order: each wide block sums pairwise, in every layout, as the
    # frozen map sums a C-ordered block alone.  A list sums such a block in
    # numpy's pairwise order, written out
    regs = [Regularizer("entropy", "simplex", d, 0.7) for d in (2, 7, 8, 9, 12, 5)]
    rng = np.random.default_rng(4)
    y = 3.0 * rng.normal(size=(500, sum(r.dim for r in regs)))
    for v in (*_layouts(y), y[0], y[1]):
        np.testing.assert_array_equal(_mapped(BlockChoiceMap(regs), v), _RefBlockChoiceMap(regs)(np.ascontiguousarray(v)))
    choice = float_choice(regs)
    for v in y[:50]:
        _assert_same_bits(choice(v.tolist()), _RefBlockChoiceMap(regs)(v))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("lead", [(), (4,)])
def test_non_finite_input_raises(bad, lead):
    regs = [Regularizer("entropy", dim=3), Regularizer("euclidean", dim=2, scale=0.5)]
    y = np.zeros(lead + (5,))
    y[..., 1] = bad
    with pytest.raises(ValueError, match="finite"):
        _mapped(BlockChoiceMap(regs), y)
    if lead == ():  # one trajectory's list of floats, through the loops' fragment
        with pytest.raises(ValueError, match="finite"):
            float_choice(regs)(y.tolist())


def test_overflowing_sum_raises_on_both_paths():
    # finite entries whose sum overflows: the check is numpy's sum, in numpy's order
    regs = [Regularizer("entropy", dim=3), Regularizer("euclidean", dim=2, scale=0.5)]
    y = np.array([1e308, 1e308, 0.0, -1e308, 0.0])
    for choice, v in ((BlockChoiceMap(regs), y), (float_choice(regs), y.tolist())):
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            choice(v)


def test_add_reduce_matches_numpy():
    # below 8 terms, 8 to 128 (eight running sums) and above 128 (halves),
    # with overflow partway, signed zeros and cancellation: the generated
    # sum against numpy and against the frozen replay of numpy's order
    rng = np.random.default_rng(12)
    for width in range(1, 301):
        names = [f"v{i}" for i in range(width)]
        add_reduce = define(f"def add_reduce(v):\n    {', '.join(names)}, = v\n    return {_add_reduce_source(names)}\n")
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
            got = add_reduce(v.tolist())
            assert type(got) is float
            if np.isnan(want):
                assert np.isnan(got) and np.isnan(frozen_add_reduce(v.tolist())), (width, v)
            else:
                _assert_same_bits(got, want)
                _assert_same_bits(got, frozen_add_reduce(v.tolist()))


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
    op, floats = PayoffOperator(game), FloatProduct(game)
    drift = np.zeros(op.dim) if op.drift is None else op.drift
    for scale in (1e-3, 1.0, 1e6):
        x = scale * rng.uniform(-1.0, 1.0, size=(50, op.dim))
        x[:5] = np.where(rng.uniform(size=(5, op.dim)) < 0.5, 0.0, -0.0)
        y0, t = rng.normal(size=op.dim), float(rng.uniform(0.0, 10.0))
        rows = []
        for v in x:
            got = floats.linear(v.tolist())
            assert type(got) is list and all(type(c) is float for c in got)
            want = _ref_linear_floats(game, v.tolist())
            _assert_same_bits(got, want)
            _assert_same_bits(floats.field(v.tolist()), np.array(want) + drift)
            _assert_same_bits(floats.motion(y0.tolist(), v.tolist(), t), y0 + np.array(want) + drift * t)
            rows.append(got)
        # against BLAS on the batch, the product the list path replaces
        np.testing.assert_allclose(np.array(rows), op.linear(x), rtol=1e-13, atol=1e-13 * scale)


# ---------------------------------------------------------------------------
# The loops' fragments against the frozen float path they replaced


@st.composite
def float_payoffs(draw, dim):
    """One start's floats: magnitudes up to 1e17, exact ties and signed zeros,
    and now and then entries near the largest float, whose sums overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = draw(st.sampled_from([1e-6, 1e-2, 1.0, 10.0, 1e3, 1e6, 1e17]))
    y = magnitude * rng.normal(size=dim)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, magnitude, -magnitude, 1.7e308, -1.7e308])
    ties = rng.uniform(size=dim) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    y[ties] = rng.choice(pool[: draw(st.sampled_from([7, 9]))], size=int(ties.sum()))
    head = draw(st.lists(st.floats(-1e17, 1e17, allow_nan=False), max_size=min(dim, 8)))
    y[: len(head)] = head
    return y.tolist()


def _same_outcome(got, want):
    """got() and want() return the same bits, or raise the same ValueError.

    Two nans match whatever their signs: CPython 3.11 adds (-nan) + nan to
    +nan in its generic float add and to -nan in the specialized one that
    warm code runs, so the sign of such a sum depends on how often the code
    ran, not on the code.  No such nan reaches a recorded row: a stage whose
    payoffs are not finite truncates the run."""
    with np.errstate(all="ignore"):
        try:
            expected = want()
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                got()
            return
        out = got()
    assert type(out) is list and all(type(c) is float for c in out)
    _assert_same_bits(out, expected, any_nan=True)


@settings(max_examples=400, deadline=None)
@given(regs=regularizers(), bad=st.sampled_from([None, np.nan, np.inf, -np.inf]), data=st.data())
def test_float_choice_matches_frozen_float_path(regs, bad, data):
    y = data.draw(float_payoffs(sum(r.dim for r in regs)))
    if bad is not None:
        y[data.draw(st.integers(0, len(y) - 1))] = bad
    block, frozen = float_choice(regs), FrozenFloatChoice(regs)
    _same_outcome(lambda: block(y), lambda: frozen(y))
    if bad is not None:
        with pytest.raises(ValueError, match="finite"):
            block(y)


@st.composite
def float_games(draw):
    """1 to 4 agents of 1 to 6 strategies on random edges, coefficients with
    zeros and signed zeros up to 1e17, now and then inf or a nan of either
    sign; zero-sum with affine drifts, or untagged with one-sided edges."""
    seed = draw(st.integers(0, 2**32 - 1))
    counts = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    magnitude = draw(st.sampled_from([1e-3, 1.0, 1e6, 1e17]))
    bad = draw(st.sampled_from([0.0, 0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0)]))
    return _float_game(seed, counts, magnitude, bad, draw(st.booleans()))


def _float_game(seed, counts, magnitude, bad, zero_sum):
    rng, n = np.random.default_rng(seed), len(counts)

    def matrix(rows, cols, bad=bad):
        a = magnitude * rng.normal(size=(rows, cols))
        zeros = rng.uniform(size=a.shape) < 0.3
        a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        if bad and rng.uniform() < 0.5:
            a[rng.integers(rows), rng.integers(cols)] = bad
        return a

    if zero_sum:  # affine
        payoffs = {}
        for i, j in [(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < 0.7]:
            a = matrix(counts[i], counts[j], bad=0.0)  # bad goes into the drifts
            payoffs[(i, j)], payoffs[(j, i)] = a, -a.T
        b = {e: matrix(1, counts[e[0]])[0] for e in payoffs if rng.uniform() < 0.6}
        return GeneralizedGame(counts, payoffs, sigma=-1, b=b)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.uniform() < 0.6]
    return NetworkGame(counts, {(i, j): matrix(counts[i], counts[j]) for i, j in pairs})


@st.composite
def float_products(draw):
    """A game of float_games and two lists of float_payoffs on it, x and y0."""
    game = draw(float_games())
    dim = sum(game.strategy_counts)
    return game, draw(float_payoffs(dim)), draw(float_payoffs(dim))


# a -nan product plus a nan drift: the sum's sign differs between the two
# paths (see _same_outcome)
NAN_SUM = (
    _float_game(1715, (2, 2, 2, 6), 1e17, np.nan, True),
    [3.30849495048451e-274, 3.30849495048451e-274, -1.7e308, -1.7e308, 1.799707382720902e17, 1.0, 0.5, 1e17,
     -1e17, -1e17, 9.775674511260357e16, 0.0],
    [-2.225073858507e-311, 1539847681795069.0, -2.964369974357621e-92, -3.711772267671582e16, -5822849158252533.0,
     -8077756391146112.0, 1e-06, 5.543614951978838e-07, 1.0, -0.0, 0.5, -1e-06],
)


@settings(max_examples=300, deadline=None)
@given(case=float_products(), t=st.sampled_from([0.0, 0.05, 0.30000000000000004, 7.25, 1e6]))
@example(case=NAN_SUM, t=0.30000000000000004)
def test_float_product_matches_frozen_float_path(case, t):
    game, x, y0 = case
    op, frozen = FloatProduct(game), FrozenFloatProduct(game)
    _same_outcome(lambda: op.linear(x), lambda: frozen.linear(x))
    _same_outcome(lambda: op.field(x), lambda: frozen.field(x))
    _same_outcome(lambda: op.motion(y0, x, t), lambda: frozen.motion(y0, x, t))


def test_array_use_generates_no_code():
    rng = np.random.default_rng(3)
    game = GAMES["affine_box"](rng)
    regs = (
        Regularizer("entropy", "box", 1),
        Regularizer("euclidean", "simplex", 3, 0.5),
        Regularizer("euclidean", "box", 1),
        Regularizer("entropy", "simplex", 2, 2.0),
    )
    before = _loop.cache_info()
    op = PayoffOperator(game)
    for x in (rng.uniform(size=7), rng.uniform(size=(5, 7))):
        op.linear(x), op.field(x), op.motion(x, x, 0.5)
        _mapped(BlockChoiceMap(regs), x)
    y = rng.normal(size=(3, 7))
    energy_of(ReadingsPlan(game, regs), y, y, y[0], np.zeros((3, 1)))
    y0 = tuple(rng.normal(size=(4, k)) for k in game.strategy_counts)
    for scheme in ("euler", "rk4", "leapfrog"):
        simulate(game, regs, y0, IntegratorConfig(scheme, 0.05, 0.5, 2))
    after = _loop.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
