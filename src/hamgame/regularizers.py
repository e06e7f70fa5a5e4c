"""Regularizers, convex conjugates, and the divergences built from them.

A regularizer is a strongly convex function h on a compact convex domain,
here either the probability simplex or the unit box [0, 1]^k.  The learning
dynamics interact with h only through derived objects:

  conjugate     h*(y) = max_x { <x, y> - h(x) }
  choice map    grad h*(y), the maximizer above
  Bregman       D(x_ref, x) = h(x_ref) - h(x) - <grad h(x), x_ref - x>
  Fenchel       F(x_ref, y) = h*(y) - <y, x_ref> + h(x_ref)

Two families are provided: negative entropy (sum x log x), whose choice map
is the softmax, and the squared euclidean norm, whose choice map is an exact
sorted-threshold projection onto the simplex (Duchi et al. 2008; Condat
2016); many short rows are sorted by a compare-exchange network instead
of np.sort, with the same bits.  On the box the two-outcome
collapsed forms are used (h(x) = x log x + (1-x) log(1-x), respectively
x^2 + (1-x)^2, summed over coordinates), which is what a two-strategy
simplex turns into under the substitution x2 = 1 - x1.

Every operation broadcasts over leading batch axes: the last axis is the
strategy dimension, anything in front of it is carried through unchanged.
BlockChoiceMap, which the steppers call, maps an array with numpy and a
single trajectory's list of Python floats on floats, with the same bits:
IEEE arithmetic rounds alike in both, the list path sums in numpy's order
(_add_reduce), and numpy keeps the exp and the tanh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import isfinite
from operator import add, truediv

import numpy as np

KINDS = ("entropy", "euclidean")
DOMAINS = ("simplex", "box")

DOMAIN_TOL = 1e-9


@dataclass(frozen=True)
class Regularizer:
    """One agent's regularizer: kind, domain, dimension and positive scale.

    The scale multiplies h pointwise; choice_map with scale s at y equals
    choice_map with scale 1 at y / s.
    """

    kind: str
    domain: str = "simplex"
    dim: int = 2
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if not self.scale > 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class ProductRegularizer:
    """Separable regularizer on a product domain, one block per factor.

    h(x) is the sum of the block values on the corresponding slices of x,
    so the choice map, conjugate and divergences all decompose blockwise.
    Used for the meta-agents of a bipartite reduction.
    """

    blocks: tuple[Regularizer, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("product regularizer needs at least one block")

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def slices(self):
        return spans(self.blocks)


AnyRegularizer = Regularizer | ProductRegularizer


def spans(regs):
    """(regularizer, slice) pairs of blocks laid side by side on the last axis."""
    start = 0
    for reg in regs:
        yield reg, slice(start, start + reg.dim)
        start += reg.dim


# The choice maps call np.add.reduce, np.maximum.reduce and np.add.accumulate,
# which the ndarray methods sum, max and cumsum wrap in Python: same bits.


def _softmax(u):
    e = np.exp(u - np.maximum.reduce(u, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _logsumexp(u):
    m = u.max(axis=-1, keepdims=True)
    return np.squeeze(m, axis=-1) + np.log(np.exp(u - m).sum(axis=-1))


def _sigmoid(u):
    # tanh form is stable for large |u|
    return 0.5 * (1.0 + np.tanh(0.5 * u))


def _xlogx(x):
    safe = np.where(x > 0.0, x, 1.0)
    return x * np.log(safe)


# rows per compare-exchange from which sorting the columns by the network
# beats np.sort on the rows (see project_simplex)
_ROWS_PER_EXCHANGE = 32


def _sorted_columns(v):
    """The columns of v (last axis) in decreasing order, row by row.

    An odd-even transposition network of np.maximum / np.minimum: width
    rounds of compare-exchanges on neighbouring columns.  Each output
    column is a new array; each row holds the entries of v's row.
    """
    u = [v[..., j] for j in range(v.shape[-1])]
    for r in range(len(u)):
        for i in range(r % 2, len(u) - 1, 2):
            u[i], u[i + 1] = np.maximum(u[i], u[i + 1]), np.minimum(u[i], u[i + 1])
    return u


def project_simplex(v):
    """Euclidean projection of v onto the probability simplex (last axis).

    Exact sorted-threshold rule; no iteration, no tolerance.  With u the
    entries in decreasing order, the thresholds are (u_1 + ... + u_j - 1) / j,
    rho counts the entries above their threshold and tau is the rho-th
    threshold; the projection is max(v - tau, 0).  Two coordinates a, b take
    no sort: the thresholds are max(a, b) - 1 and (a + b - 1) / 2, and tau is
    the second exactly when min(a, b) exceeds it.  These are the sorted
    rule's own operations, so the bits are the same.  An entry of -inf sorts
    last, its threshold is -inf, which never counts toward rho, and it maps
    to 0; BlockChoiceMap pads narrow blocks with it.

    Many short rows sort their columns by a compare-exchange network
    (_sorted_columns) instead: a few ufunc calls on whole columns in place
    of one sort per row, about 4x faster on the 4,000 rows of 3 of the
    cloud benchmark's choice map.  The thresholds are then formed column by
    column in cumsum's own addition order, rho is the same count and tau
    is picked by rho, so the bits are those of the sort.  The network's
    fixed cost grows with its w(w - 1) / 2 compare-exchanges, so it takes
    over from 32 rows per exchange: 96 rows at width 3, then 192, 320,
    480 and 672 at widths 4 to 7; rows of 8 or more entries keep the sort.
    Measured on a 2-core x86 machine with numpy 2.4, the two break even
    near 96 rows at width 3, 200 at widths 4 and 5 and 450 at 6 and 7.
    """
    v = np.asarray(v, dtype=float)
    width = v.shape[-1]
    if width == 2:
        a, b = v[..., 0], v[..., 1]
        wide = (a + b - 1.0) / 2
        tau = np.where(np.minimum(a, b) > wide, wide, np.maximum(a, b) - 1.0)
        return np.maximum(v - tau[..., None], 0.0)
    if 2 < width < _PAD_BELOW and v.size // width >= _ROWS_PER_EXCHANGE * width * (width - 1) // 2:
        # every array below takes the layout of v's columns: a count or a
        # pick in another layout costs a strided loop
        u = _sorted_columns(v)
        csum, rho, thresholds = u[0], np.zeros_like(u[0], dtype=np.int8), []
        for j, uj in enumerate(u, 1):
            if j > 1:
                csum = csum + uj
            t = csum - 1.0
            if j > 1:  # x / 1 is x
                t /= j
            rho += (uj > t).view(np.int8)
            thresholds.append(t)
        del u, csum  # not read past rho: released to lower the call's peak
        tau = 0.0  # the sort's pick when nothing counts, as below
        for j, t in enumerate(thresholds, 1):
            tau = np.where(rho == j, t, tau)
        del thresholds
        out = v - tau[..., None]
        return np.maximum(out, 0.0, out=out)
    u = np.negative(v)
    u.sort(axis=-1)
    np.negative(u, out=u)  # v in decreasing order
    k = _counts(width)
    thresholds = (np.add.accumulate(u, axis=-1) - 1.0) / k
    rho = np.add.reduce(u > thresholds, axis=-1, keepdims=True)
    # the rho-th threshold, or 0.0 at rho = 0, in 1-D too; the other summands are exact zeros
    tau = np.add.reduce(np.where(k == rho, thresholds, 0.0), axis=-1, keepdims=True)
    out = v - tau
    return np.maximum(out, 0.0, out=out)


@cache
def _counts(width: int) -> np.ndarray:  # the thresholds' divisors 1..width; never written to
    return np.arange(1, width + 1)


def _outside(reg: Regularizer, x):
    """Points (leading axes) of x outside the domain beyond DOMAIN_TOL."""
    if reg.domain == "simplex":
        return (np.abs(np.sum(x, axis=-1) - 1.0) > DOMAIN_TOL) | np.any(
            x < -DOMAIN_TOL, axis=-1
        )
    return np.any((x < -DOMAIN_TOL) | (x > 1.0 + DOMAIN_TOL), axis=-1)


def _on_boundary(reg: Regularizer, x):
    """Points where an entropy gradient is undefined: a coordinate at 0 (or at 1 on the box)."""
    if reg.kind != "entropy":
        return np.zeros(x.shape[:-1], dtype=bool)
    if reg.domain == "simplex":
        return np.any(x <= 0.0, axis=-1)
    return np.any((x <= 0.0) | (x >= 1.0), axis=-1)


def _check_domain(reg: Regularizer, x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != reg.dim:
        raise ValueError(f"point has dimension {x.shape[-1]}, expected {reg.dim}")
    if np.any(_outside(reg, x)):
        raise ValueError(f"point outside {reg.domain} domain beyond {DOMAIN_TOL}")
    return x


def h_value(reg: AnyRegularizer, x):
    """Value of the regularizer at x (batched over leading axes)."""
    if isinstance(reg, ProductRegularizer):
        x = np.asarray(x, dtype=float)
        return sum(h_value(b, x[..., s]) for b, s in reg.slices())
    x = _check_domain(reg, x)
    if reg.kind == "entropy":
        if reg.domain == "simplex":
            val = np.sum(_xlogx(x), axis=-1)
        else:
            val = np.sum(_xlogx(x) + _xlogx(1.0 - x), axis=-1)
    else:
        if reg.domain == "simplex":
            val = np.sum(x * x, axis=-1)
        else:
            val = np.sum(x * x + (1.0 - x) * (1.0 - x), axis=-1)
    return reg.scale * val


def _clip_centered(u):
    # np.clip's operations; u + 0.5 is never -0.0, whose clip could differ
    return np.minimum(np.maximum(u + 0.5, 0.0), 1.0)


# choice maps at scale 1, by (kind, domain), each after the prescale below;
# scale s acts as y -> y / (s * prescale)
_UNIT_CHOICE = {
    ("entropy", "simplex"): _softmax,
    ("entropy", "box"): _sigmoid,
    ("euclidean", "simplex"): project_simplex,
    ("euclidean", "box"): _clip_centered,
}
# y / (2 s) rounds as (y / s) / 2 does, barring subnormals: a power of two
# folds into the scale without changing bits
_PRESCALE = {("euclidean", "simplex"): 2.0, ("euclidean", "box"): 4.0}

# numpy sums fewer than 8 terms in order and more pairwise, so trailing
# zeros (the softmax of -inf padding) keep a sum's bits only below 8 terms
_PAD_BELOW = 8


def _leaves(regs):
    for reg in regs:
        if isinstance(reg, ProductRegularizer):
            yield from _leaves(reg.blocks)
        else:
            yield reg


def _factor(reg: Regularizer) -> float:
    return reg.scale * _PRESCALE.get((reg.kind, reg.domain), 1.0)


def payoff_limit(reg: AnyRegularizer) -> float:
    """|y| below which choice_map(reg, y) lands on its domain within DOMAIN_TOL.

    Infinite, except for euclidean simplex blocks: their projection works
    on u = y / (2 s).  With |u| <= M on a block of width w, the j-th sorted
    partial sum errs by at most j (j + 1) / 2 units of 2^-53 M, and the
    threshold (u_1 + ... + u_j - 1) / j by two more; the rho <= w outputs
    u_i - tau all inherit tau's error, so a row sum misses 1 by less than
    w^2 2^-52 M.  The limit 2 s DOMAIN_TOL 2^52 / w^2 keeps that within
    DOMAIN_TOL: 2.3e6 s at w = 2, 1.0e6 s at 3, 9.0e4 s at 10; the smallest
    over a product's blocks.  Near-tie rows missed by at most a third of it.
    """
    leaves = [leaf for leaf in _leaves([reg]) if (leaf.kind, leaf.domain) == ("euclidean", "simplex")]
    return min((_factor(leaf) * DOMAIN_TOL * 2.0**52 / leaf.dim**2 for leaf in leaves), default=float("inf"))


def _add_reduce(v):
    """np.add.reduce of a list of floats, bit for bit (builtin sum() compensates).

    numpy adds to 0.0: below 8 terms left to right; up to 128, eight sums r_j
    of the terms j mod 8, as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the rest in order; above 128, two halves, the first n // 2 rounded
    down to a multiple of 8."""
    n = len(v)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _add_reduce(v[:half]) + _add_reduce(v[half:])
    s, end = 0.0, n - n % 8
    if end:
        r = v[:8]
        for i in range(8, end, 8):
            r = list(map(add, r, v[i : i + 8]))
        s += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for c in v[end:]:
        s += c
    return s


def _project_floats(u):
    """project_simplex on a list of floats: the sorted rule, operation for operation.

    The running sum and the thresholds round as np.add.accumulate and the
    division by the counts do.  A zero's sign in the running sum can differ
    from numpy's, but it is lost in the - 1.0.  rho = 0 picks tau = 0.0,
    as the batched pick does; max(d, 0.0) is written d if d > 0.0 else 0.0,
    which turns -0.0 into +0.0 as np.maximum does.
    """
    thresholds, csum, rho = [], 0.0, 0
    for j, c in enumerate(sorted(u, reverse=True), 1):
        csum += c
        t = (csum - 1.0) / j
        rho += c > t
        thresholds.append(t)
    tau = thresholds[rho - 1] if rho else 0.0
    return [d if (d := c - tau) > 0.0 else 0.0 for c in u]


class BlockChoiceMap:
    """Choice maps of several regularizers on one concatenated payoff vector.

    The last axis of y is the concatenation of one block per regularizer
    (product regularizers contribute their blocks).  Every row is mapped
    exactly as the block alone would be, on either of two paths chosen by
    y's type, and both give the same bits.

    A list of Python floats (one trajectory) is mapped on floats, into a
    list, with no numpy call per block.  The scale division, the row max
    and shift, the division by the softmax sum, the sorted projection and
    the box clip are single IEEE operations, which round alike in Python
    and numpy, and every sum, the finiteness check's too, follows numpy's
    order (_add_reduce).  numpy keeps one np.exp call for all entropy-simplex
    coordinates and one np.tanh call for all entropy-box ones, since
    numpy's exp and tanh may differ from libm's.

    An array y, 1-D or batched, maps all blocks of one kind and domain in one
    call on a (..., count, width) array, with the scales (and the
    prescales of the euclidean maps) divided out coordinate by coordinate;
    box maps act coordinatewise, so box blocks count as blocks of width
    one.  A simplex block narrower than its group's widest is padded with
    -inf, which keeps every bit: the row max does not change, exp(-inf)
    adds trailing +0.0 terms to the softmax sum, and the sorted projection
    rule never counts a -inf entry (see project_simplex); the padded
    outputs are dropped.  Blocks of 8 or more coordinates group by
    dimension, since numpy sums 8 or more terms pairwise, in another order.
    The outputs are gathered back into one C-ordered array:
    PayoffOperator.linear multiplies slices of it, and BLAS sums an
    F-ordered operand in another order.

    On a list, a euclidean simplex block of one or two coordinates takes
    project_simplex's two-coordinate rule when its group is two wide, as the
    array group does; it differs from the sorted rule only once
    |y| / (2 s) reaches 2^53, far past payoff_limit.
    """

    def __init__(self, regs):
        groups, single, start = {}, {key: [] for key in _UNIT_CHOICE}, 0
        for reg in _leaves(regs):
            box = reg.domain == "box"  # coordinatewise: one block per coordinate
            blocks = [(c, 1) for c in range(start, start + reg.dim)] if box else [(start, reg.dim)]
            wide = 0 if box or reg.dim < _PAD_BELOW else reg.dim
            group = groups.setdefault((reg.kind, reg.domain, wide), [])
            group.extend((first, dim, _factor(reg)) for first, dim in blocks)
            single[reg.kind, reg.domain].extend((first, first + dim) for first, dim in blocks)
            start += reg.dim
        plans, back, offset = [], np.empty(start, dtype=np.intp), 0
        for (kind, domain, _), blocks in groups.items():
            width = max(dim for _, dim, _ in blocks)
            index, scales, pad = [], [], []
            for first, dim, factor in blocks:
                back[first : first + dim] = range(offset + len(index), offset + len(index) + dim)
                pad.extend(range(len(index) + dim, len(index) + width))
                index.extend(range(first, first + dim))
                index.extend([first] * (width - dim))  # any coordinate; set to -inf
                scales.extend([factor] * width)
            offset += len(index)
            if pad:
                index, pad = np.array(index), np.array(pad)
            elif index == list(range(index[0], index[-1] + 1)):
                index, pad = slice(index[0], index[-1] + 1), None  # a view, no gather
            else:
                index, pad = np.array(index), None
            scale = None if all(v == 1.0 for v in scales) else np.array(scales)
            plans.append((index, scale, pad, (len(blocks), width), _UNIT_CHOICE[kind, domain]))
        self.plans = tuple(plans)
        # None when the groups' outputs, concatenated, already are x in order
        self.back = None if np.array_equal(back, np.arange(offset)) else back
        # the list path's factor per coordinate and (first, stop) blocks by map, box coordinates
        # one by one; a euclidean simplex block takes the two-coordinate rule where its group does
        self.factors = tuple(float(_factor(reg)) for reg in _leaves(regs) for _ in range(reg.dim))
        self.softmax = tuple(single["entropy", "simplex"])
        self.sigmoid = tuple(i for i, _ in single["entropy", "box"])
        self.clip = tuple(i for i, _ in single["euclidean", "box"])
        pair = max((dim for _, dim, _ in groups.get(("euclidean", "simplex", 0), ())), default=0) == 2
        euclid = single["euclidean", "simplex"]
        self.pair = tuple(b for b in euclid if pair and b[1] - b[0] <= 2)
        self.sort = tuple(b for b in euclid if not (pair and b[1] - b[0] <= 2))

    def __call__(self, y):
        floats = isinstance(y, list)
        # one reduction, in numpy's order on either path; nan and inf both poison the sum
        if not isfinite(_add_reduce(y) if floats else np.add.reduce(y, axis=None)):
            raise ValueError("choice map requires finite payoff vector")
        if floats:
            return self._single(y)
        lead = y.shape[:-1]
        parts = []
        for index, scale, pad, shape, unit_map in self.plans:
            u = y[..., index]
            if scale is not None:
                u = u / scale
            if pad is not None:  # u is a gathered copy here, never a view of y
                u[..., pad] = -np.inf
            parts.append(unit_map(u.reshape(lead + shape)).reshape(lead + (-1,)))
            del u  # each group's input is released once it is mapped
        x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        del parts
        if self.back is not None:
            x = x[..., self.back]
        # a gathered group maps to an F-ordered output, and so does the
        # gather back; np.take would first copy x into C order
        return np.ascontiguousarray(x)

    def _single(self, v):
        u = list(map(truediv, v, self.factors))  # the scaled payoffs
        x = u[:]  # every entry is overwritten
        for first, stop in self.pair:
            if stop - first == 2:
                a, b = u[first], u[first + 1]
                wide = (a + b - 1.0) / 2
                tau = wide if (a if a < b else b) > wide else (b if a < b else a) - 1.0
                d, e = a - tau, b - tau
                x[first], x[first + 1] = d if d > 0.0 else 0.0, e if e > 0.0 else 0.0
            else:  # padded with -inf: wide is -inf, tau is a - 1
                a = u[first]
                d = a - (a - 1.0)
                x[first] = d if d > 0.0 else 0.0
        for first, stop in self.sort:
            x[first:stop] = _project_floats(u[first:stop])
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
                s = _add_reduce(e[pos:end])
                x[first:stop] = [c / s for c in e[pos:end]]
                pos = end
        return x


def choice_map(reg: AnyRegularizer, y):
    """grad h*(y): the strategy maximizing <x, y> - h(x) over the domain."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != reg.dim:
        raise ValueError(f"payoff vector has dimension {y.shape[-1]}, expected {reg.dim}")
    if isinstance(reg, ProductRegularizer):
        return BlockChoiceMap(reg.blocks)(y)
    if not isfinite(np.add.reduce(y, axis=None)):
        raise ValueError("choice map requires finite payoff vector")
    factor = _factor(reg)
    return _UNIT_CHOICE[reg.kind, reg.domain](y if factor == 1.0 else y / factor)


def conjugate_value(reg: AnyRegularizer, y):
    """h*(y) = <x, y> - h(x) at x = choice_map(y).

    Entropy kinds use the closed forms (scaled logsumexp / softplus), which
    agree with the generic expression but stay accurate for large y.
    """
    if isinstance(reg, ProductRegularizer):
        y = np.asarray(y, dtype=float)
        return sum(conjugate_value(b, y[..., s]) for b, s in reg.slices())
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("conjugate requires finite payoff vector")
    if reg.kind == "entropy":
        u = y / reg.scale
        if reg.domain == "simplex":
            return reg.scale * _logsumexp(u)
        return reg.scale * np.sum(np.logaddexp(0.0, u), axis=-1)
    x = choice_map(reg, y)
    return np.sum(x * y, axis=-1) - h_value(reg, x)


def gradient_h(reg: AnyRegularizer, x):
    """grad h(x); undefined (raises) on the boundary for entropy kinds."""
    if isinstance(reg, ProductRegularizer):
        x = np.asarray(x, dtype=float)
        return np.concatenate(
            [gradient_h(b, x[..., s]) for b, s in reg.slices()], axis=-1
        )
    x = _check_domain(reg, x)
    if np.any(_on_boundary(reg, x)):
        where = "zero coordinate" if reg.domain == "simplex" else "coordinate at 0 or 1"
        raise ValueError(f"gradient undefined on boundary ({where})")
    if reg.kind == "entropy":
        if reg.domain == "simplex":
            return reg.scale * (1.0 + np.log(x))
        return reg.scale * (np.log(x) - np.log(1.0 - x))
    if reg.domain == "simplex":
        return 2.0 * reg.scale * x
    return reg.scale * (4.0 * x - 2.0)


def bregman_distance(reg: AnyRegularizer, x_ref, x):
    """D(x_ref, x) = h(x_ref) - h(x) - <grad h(x), x_ref - x>.

    Nonnegative, zero iff x_ref == x.  Entropy kinds reduce to the
    Kullback-Leibler divergence and require x strictly interior.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    x = np.asarray(x, dtype=float)
    grad = gradient_h(reg, x)
    return (
        h_value(reg, x_ref)
        - h_value(reg, x)
        - np.sum(grad * (x_ref - x), axis=-1)
    )


def fenchel_coupling(reg: AnyRegularizer, x_ref, y):
    """F(x_ref, y) = h*(y) - <y, x_ref> + h(x_ref).

    Upper bound on bregman_distance(x_ref, choice_map(y)), with equality
    whenever the choice map lands in the interior.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    y = np.asarray(y, dtype=float)
    return conjugate_value(reg, y) - np.sum(y * x_ref, axis=-1) + h_value(reg, x_ref)


def _undefined(reg: AnyRegularizer, x):
    """Points (leading axes) where bregman_distance(reg, ., x) raises."""
    if isinstance(reg, ProductRegularizer):
        return np.any([_undefined(b, x[..., s]) for b, s in reg.slices()], axis=0)
    return _outside(reg, x) | _on_boundary(reg, x)


def fenchel_bregman(regs, ref, y, x):
    """Summed F(ref_i, y_i) and D(ref_i, x_i) over agents, row by row.

    y and x are stacks of rows (first axis, any batch axes next) holding
    the agents' blocks side by side on the last axis; the work loops over
    agents, not rows.  F raises ValueError as fenchel_coupling does.  D is
    NaN on every row where bregman_distance would raise for some agent and
    batch entry: an entropy strategy on the boundary, or a point outside
    the domain.
    """
    F, bad = 0, np.zeros(len(x), dtype=bool)
    for (reg, s), xr in zip(spans(regs), ref):
        F = F + fenchel_coupling(reg, xr, y[..., s])
        bad |= _undefined(reg, x[..., s]).reshape(len(x), -1).any(axis=1)
    D = np.full(np.shape(F), np.nan)
    if not bad.all():
        good = x[~bad]
        D[~bad] = sum(
            bregman_distance(reg, xr, good[..., s]) for (reg, s), xr in zip(spans(regs), ref)
        )
    return F, D


def restrict_to_interval(reg: Regularizer) -> Regularizer:
    """Collapse a two-strategy simplex regularizer to its [0, 1] form.

    The substitution x2 = 1 - x1 turns h on the 2-simplex into the
    one-dimensional box regularizer of the same kind and scale.
    """
    if isinstance(reg, ProductRegularizer) or reg.domain != "simplex" or reg.dim != 2:
        raise ValueError("only a two-strategy simplex regularizer can be collapsed")
    return replace(reg, domain="box", dim=1)


def payoffs_from_profile(reg: AnyRegularizer, x):
    """A payoff vector y with choice_map(reg, y) == x, for interior x.

    Convenient for starting a trajectory at a prescribed strategy profile.
    """
    if isinstance(reg, ProductRegularizer):
        x = np.asarray(x, dtype=float)
        return np.concatenate(
            [payoffs_from_profile(b, x[..., s]) for b, s in reg.slices()], axis=-1
        )
    x = _check_domain(reg, x)
    if reg.kind == "entropy":
        if np.any(x <= 0.0) or (reg.domain == "box" and np.any(x >= 1.0)):
            raise ValueError("profile must be strictly interior")
        if reg.domain == "simplex":
            return reg.scale * np.log(x)
        return reg.scale * (np.log(x) - np.log(1.0 - x))
    if reg.domain == "simplex":
        return 2.0 * reg.scale * x
    return 4.0 * reg.scale * (x - 0.5)
