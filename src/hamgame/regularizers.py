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
BlockChoiceMap maps all agents' blocks of an array with numpy, on the
coordinate-major layout that batched runs step on: axis 0 is the
coordinate, every further axis a batch axis.  choice_lines writes the same
map as straight-line Python statements on named floats, the fragment that
dynamics writes into its single-trajectory loops (and compiles with
define); both give the same bits: IEEE
arithmetic rounds alike in both, the written-out sums follow numpy's
order, and numpy keeps the exp and the tanh.  AgentReadings reads the
agents' conjugates, and F and D, of whole records, a group of leaves of one
kind, domain and width per numpy call, with the bits of the per-agent
functions above.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import copysign, inf, isfinite, nan

import numpy as np

KINDS = ("entropy", "euclidean")
DOMAINS = ("simplex", "box")

DOMAIN_TOL = 1e-9


class NonFinitePayoff(ValueError):
    """A choice map was handed a payoff vector whose sum is not finite.

    simulate truncates a run on it where a stage point or a kick turns
    non-finite inside a step; everywhere else it is an ordinary ValueError.
    """


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


def regularizer_records(regs) -> list[dict]:
    """The regularizers as the JSON records a trajectory's metadata keeps;
    a product's record names its blocks."""
    return [
        {"kind": "product", "blocks": regularizer_records(r.blocks)} if isinstance(r, ProductRegularizer)
        else {"kind": r.kind, "domain": r.domain, "dim": r.dim, "scale": r.scale}
        for r in regs
    ]


def spans(regs):
    """(regularizer, slice) pairs of blocks laid side by side on the last axis."""
    start = 0
    for reg in regs:
        yield reg, slice(start, start + reg.dim)
        start += reg.dim


# The choice maps call np.add.reduce, np.maximum.reduce and np.add.accumulate,
# which the ndarray methods sum, max and cumsum wrap in Python: same bits.


# The unit maps write into out when it is given (an array of u's shape).


def _softmax(u, out=None):
    e = np.subtract(u, np.maximum.reduce(u, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    # numpy sums 8 or more terms on a contiguous last axis pairwise, fewer
    # (or on any other layout) in order; the copy keeps a wide row's order
    e /= np.add.reduce(e if e.shape[-1] < _PAIRWISE_FROM else np.ascontiguousarray(e), axis=-1, keepdims=True)
    return e


def _sigmoid(u, out=None):
    # tanh form is stable for large |u|: 0.5 * (1.0 + tanh(0.5 * u))
    s = np.tanh(np.multiply(u, 0.5, out=out), out=out)
    s += 1.0
    s *= 0.5
    return s


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


def project_simplex(v, out=None):
    """Euclidean projection of v onto the probability simplex (last axis),
    into out when it is given.

    Exact sorted-threshold rule; no iteration, no tolerance.  With u the
    entries in decreasing order, the thresholds are (u_1 + ... + u_j - 1) / j,
    rho counts the entries above their threshold and tau is the rho-th
    threshold; the projection is max(v - tau, 0).  An entry of -inf sorts
    last, its threshold is -inf, which never counts toward rho, and it maps
    to 0.  Two coordinates a, b take no sort, on every path (choice_lines
    too): the thresholds are max(a, b) - 1 and (a + b - 1) / 2, and tau is
    the second exactly when min(a, b) exceeds it.  That is the sorted rule
    while |v| < 2^53, where c - 1 < c for the larger entry c; payoff_limit
    ends a run long before.

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
        return _clipped_shift(v, tau[..., None], out)
    if width < _PAIRWISE_FROM and v.size // width >= _ROWS_PER_EXCHANGE * width * (width - 1) // 2:
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
        return _clipped_shift(v, tau[..., None], out)
    u = np.negative(v)
    u.sort(axis=-1)
    np.negative(u, out=u)  # v in decreasing order
    k = _counts(width)
    thresholds = (np.add.accumulate(u, axis=-1) - 1.0) / k
    rho = np.add.reduce(u > thresholds, axis=-1, keepdims=True)
    # the rho-th threshold, or 0.0 at rho = 0, in 1-D too; the other summands are exact zeros
    tau = np.add.reduce(np.where(k == rho, thresholds, 0.0), axis=-1, keepdims=True)
    return _clipped_shift(v, tau, out)


def _clipped_shift(v, tau, out):  # max(v - tau, 0), into out when given
    out = np.subtract(v, tau, out=out)
    return np.maximum(out, 0.0, out=out)


@cache
def _counts(width: int) -> np.ndarray:  # the thresholds' divisors 1..width; never written to
    return np.arange(1, width + 1)


def _outside(reg: Regularizer, x):
    """Points (leading axes) of x outside the domain beyond DOMAIN_TOL."""
    # the ufuncs' own reductions: np.sum and np.any wrap them, at a cost per call
    if reg.domain == "simplex":
        return (np.abs(np.add.reduce(x, axis=-1) - 1.0) > DOMAIN_TOL) | np.logical_or.reduce(x < -DOMAIN_TOL, axis=-1)
    return np.logical_or.reduce((x < -DOMAIN_TOL) | (x > 1.0 + DOMAIN_TOL), axis=-1)


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
    return reg.scale * np.sum(_h_terms(reg, _check_domain(reg, x)), axis=-1)


def _clip_centered(u, out=None):
    # np.clip's operations; u + 0.5 is never -0.0, whose clip could differ
    c = np.maximum(np.add(u, 0.5, out=out), 0.0, out=out)
    return np.minimum(c, 1.0, out=c)


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

# numpy sums fewer than 8 terms in order and more pairwise
_PAIRWISE_FROM = 8


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


# terms per generated statement: an a + b + ... expression nests as deep as
# it is long, and CPython's compiler recurses into it (3,000 terms raise
# RecursionError on 3.11); longer sums run on in further statements
_CHAIN = 100


def define(source: str):
    """The function that generated source ("def name(...): ...") defines.
    The source may read numpy's exp and tanh, isfinite, NonFinitePayoff,
    and inf and nan, the names of non-finite constants."""
    scope = {"exp": np.exp, "tanh": np.tanh, "isfinite": isfinite, "inf": inf, "nan": nan,
             "NonFinitePayoff": NonFinitePayoff}
    exec(compile(source, "<generated>", "exec"), scope)
    return scope[source[len("def ") : source.index("(")]]


def literal(v) -> str:
    """The float v as source.  Its repr reads back exactly, and is "inf",
    "-inf" or "nan", names in define's scope, for a non-finite v; a nan
    whose sign bit is set is written -nan, as the repr drops the sign."""
    v = float(v)
    return repr(v) if v == v or copysign(1.0, v) > 0.0 else "-nan"


def summed(name: str, head: str, terms) -> tuple[list[str], str]:
    """(statements, expression) for head + terms[0] + terms[1] + ..., added
    left to right: the expression alone up to _CHAIN terms, else statements
    that add _CHAIN terms at a time into name, and the rest after name."""
    lines = []
    while len(terms) > _CHAIN:
        lines.append(f"{name} = {' + '.join([head, *terms[:_CHAIN]])}")
        head, terms = name, terms[_CHAIN:]
    return lines, " + ".join([head, *terms])


def _add_reduce_source(terms) -> str:
    """np.add.reduce of the named terms as one expression, in numpy's order.

    numpy adds to 0.0: below 8 terms left to right; up to 128, eight sums
    r_j of the terms j mod 8, as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
    r7)), then the rest in order; above 128, two halves, the first n // 2
    rounded down to a multiple of 8.  No r_j has more than 16 terms, so the
    expression nests only a few dozen deep.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return f"({_add_reduce_source(terms[:half])}) + ({_add_reduce_source(terms[half:])})"
    head, end = "0.0", n - n % 8
    if end:
        r = [f"({' + '.join(terms[j:end:8])})" for j in range(8)]
        head = f"0.0 + ((({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]})))"
    return " + ".join([head, *terms[end:]])


def _pair_source(u, x):
    """project_simplex's two-coordinate rule on the names u, into the names x."""
    a, b = u
    return [
        f"w = ({a} + {b} - 1.0) / 2",
        f"tau = w if ({a} if {a} < {b} else {b}) > w else ({b} if {a} < {b} else {a}) - 1.0",
        f"{x[0]} = d if (d := {a} - tau) > 0.0 else 0.0",
        f"{x[1]} = d if (d := {b} - tau) > 0.0 else 0.0",
    ]


def _sorted_source(u, x):
    """project_simplex's sorted rule on the names u, into the names x.

    The running sum starts at the largest entry, not at 0.0 + it: that
    changes at most a zero's sign, which the - 1.0 loses.  x / 1 is x.
    tau is the rho-th threshold, or 0.0 at rho = 0, as the batched pick.
    max(d, 0.0) is written d if d > 0.0 else 0.0, which turns -0.0 into
    +0.0 as np.maximum does.
    """
    k = len(u)
    lines = [f"{', '.join(f'c{j}' for j in range(1, k + 1))}, = sorted(({', '.join(u)},), reverse=True)"]
    lines += ["s = c1", "t1 = s - 1.0"]
    for j in range(2, k + 1):
        lines += [f"s = s + c{j}", f"t{j} = (s - 1.0) / {j}"]
    count, rho = summed("rho", "(c1 > t1)", [f"(c{j} > t{j})" for j in range(2, k + 1)])
    lines += count + [f"tau = (0.0, {', '.join(f't{j}' for j in range(1, k + 1))})[{rho}]"]
    return lines + [f"{xi} = d if (d := {ui} - tau) > 0.0 else 0.0" for ui, xi in zip(u, x)]


# values per choice map up to which numpy's exp (or tanh) is called once per
# value, float(exp(a)), rather than once on the list of them all: about
# 0.12 us a scalar call against 0.7 us + 0.05 us a value for a list call and
# its tolist, which break even at 7 to 10 values (Python 3.11, numpy 2.4, a
# 2-core x86 machine)
_SCALAR_CALLS = 8


def _numpy_call(name, args, outs):
    """Statements that set the names outs to numpy's name (exp or tanh) of
    the expressions args.  A 0-d call runs the ufunc loop that a whole
    array's element runs, so both forms give numpy's bits (the guard is
    tests/test_regularizers.py's TestNumpyCallForms)."""
    if len(outs) <= _SCALAR_CALLS:
        return [f"{out} = float({name}({arg}))" for arg, out in zip(args, outs)]
    return [f"{', '.join(outs)}, = {name}([{', '.join(args)}]).tolist()"]


def choice_lines(leaves, y, x) -> list[str]:
    """Statements that map the names y, the payoffs of the leaf regularizers
    laid side by side, into the names x, their choice maps; the finiteness
    check raises NonFinitePayoff.  The temporaries are names without an
    underscore: u3, m3, s, t2, c2, rho, tau, w, d, v, z.

    They keep BlockChoiceMap's bits and errors: its single IEEE operations
    round alike in Python, every sum (the finiteness check's too) is
    written out in numpy's order, and numpy keeps the exp of the entropy
    simplex blocks and the tanh of the entropy box coordinates, as numpy's
    may differ from libm's (_numpy_call).  A euclidean simplex block takes
    project_simplex's rule for its width: the two-coordinate rule at two,
    the sorted rule at any other.
    """
    body = [  # nan and inf both poison the sum
        f"if not isfinite({_add_reduce_source(y)}):",
        "    raise NonFinitePayoff('choice map requires finite payoff vector')",
    ]
    shifted, halved = [], []  # the inputs of np.exp and of np.tanh
    exps, tanhs = [], []  # their outputs: entropy simplex blocks, entropy box coordinates
    start = 0
    for reg in leaves:
        block, xs = range(start, start + reg.dim), x[start : start + reg.dim]
        start += reg.dim
        factor = _factor(reg)
        u = [y[i] if factor == 1.0 else f"u{i}" for i in block]  # x / 1.0 is x
        if factor != 1.0:
            body += [f"u{i} = {y[i]} / {literal(factor)}" for i in block]
        if (reg.kind, reg.domain) == ("entropy", "simplex"):
            m = u[0] if reg.dim == 1 else f"m{block[0]}"
            if reg.dim > 1:
                body.append(f"{m} = max({', '.join(u)})")
            shifted += [f"{c} - {m}" for c in u]
            exps.append(xs)
        elif (reg.kind, reg.domain) == ("entropy", "box"):
            halved += [f"0.5 * {c}" for c in u]
            tanhs += xs
        elif reg.domain == "box":  # min(max(u + 0.5, 0.0), 1.0)
            body += [f"{xi} = 1.0 if (v := {c} + 0.5) >= 1.0 else v if v > 0.0 else 0.0" for xi, c in zip(xs, u)]
        elif reg.dim == 2:
            body += _pair_source(u, xs)
        else:
            body += _sorted_source(u, xs)
    if tanhs:
        body += _numpy_call("tanh", halved, tanhs)
        body += [f"{h} = 0.5 * (1.0 + {h})" for h in tanhs]
    if exps:
        body += _numpy_call("exp", shifted, [e for block in exps for e in block])
        for block in exps:
            body.append(f"z = {_add_reduce_source(block)}")
            body += [f"{e} = {e} / z" for e in block]
    return body


class BlockChoiceMap:
    """Choice maps of several regularizers on one coordinate-major payoff array.

    Axis 0 of y is the concatenation of one block per regularizer (product
    regularizers contribute their blocks); any further axes are batch axes.
    Row c of a (D, n) array holds coordinate c of n starts, so each block is
    a contiguous range of rows, mapped on those rows into the same rows of
    one output laid out as y is: no gather, no padding.  A 1-D y is one
    start; a (batch..., D) array is mapped as np.moveaxis(y, -1, 0), a view
    (choice_map does so).  Each block's rule follows from its kind, domain
    and width alone, so every block is mapped exactly as the block alone
    would be, and choice_lines writes the same map, bit for bit, as
    straight-line Python.

    Each block's scale (and the prescale of a euclidean map) is divided
    out, and its unit map reads the block's rows through the transposed
    view, with the coordinates last (and any batch axes reversed, which a
    map acting on the last axis alone does not notice); box maps act
    coordinatewise.
    """

    def __init__(self, regs):
        self.leaves = tuple(_leaves(regs))
        plans, start = [], 0  # (rows, factor, unit map) per block
        for reg in self.leaves:
            plans.append((slice(start, start + reg.dim), _factor(reg), _UNIT_CHOICE[reg.kind, reg.domain]))
            start += reg.dim
        self.plans = tuple(plans)

    def __call__(self, y):
        # one reduction, in the order choice_lines writes out on a 1-D y; nan
        # and inf both poison the sum
        if not isfinite(np.add.reduce(y, axis=None)):
            raise NonFinitePayoff("choice map requires finite payoff vector")
        x = np.empty_like(y)
        for rows, factor, unit_map in self.plans:
            u = y[rows] if factor == 1.0 else y[rows] / factor  # x / 1.0 is x
            unit_map(u.T, out=x[rows].T)  # coordinates last
            del u  # each block's input is released once it is mapped
        return x


def choice_map(reg: AnyRegularizer, y):
    """grad h*(y): the strategy maximizing <x, y> - h(x) over the domain,
    mapped by BlockChoiceMap."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != reg.dim:
        raise ValueError(f"payoff vector has dimension {y.shape[-1]}, expected {reg.dim}")
    return np.moveaxis(BlockChoiceMap([reg])(np.moveaxis(y, -1, 0)), 0, -1)


def conjugate_value(reg: AnyRegularizer, y):
    """h*(y) = <x, y> - h(x) at x = choice_map(y).

    Entropy kinds use the closed forms (scaled logsumexp / softplus), which
    agree with the generic expression but stay accurate for large y.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != reg.dim:
        raise ValueError(f"payoff vector has dimension {y.shape[-1]}, expected {reg.dim}")
    return AgentReadings([reg]).conjugates(y)[..., 0][()]  # a float for one y, as a sum's would be


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
    return _gradient(reg, reg.scale, x)


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


def _span(positions):
    """Increasing positions as a slice when they run on consecutively, else as an index array."""
    first, last = positions[0], positions[-1]
    return slice(first, last + 1) if last - first + 1 == len(positions) else np.array(positions)


class _Group:
    """m blocks of width k of the last axis, read as one (..., m, k) array:
    members are their positions among the blocks (at, to index with), and
    index their coordinates side by side; a slice, when they are adjacent,
    gathers a view."""

    def __init__(self, blocks):  # (position, slice) pairs
        self.members = [n for n, _ in blocks]
        self.at = _span(self.members)
        self.index = _span([c for _, s in blocks for c in range(s.start, s.stop)])
        self.shape = (len(blocks), blocks[0][1].stop - blocks[0][1].start)

    def __call__(self, a):
        return a[..., self.index].reshape(a.shape[:-1] + self.shape)


def _grouped(blocks, key=lambda n: None):
    """The blocks (slices of the last axis) as _Groups of one key (of the
    position) and one width k: a reduction over each block runs on the
    last axis, in numpy's order for k terms.  A block of 8 or more
    coordinates, which numpy sums pairwise, keeps a group of its own."""
    found = {}
    for n, s in enumerate(blocks):
        k = s.stop - s.start
        found.setdefault((key(n), k) if k < _PAIRWISE_FROM else (n,), []).append((n, s))
    return [_Group(blocks) for blocks in found.values()]


def _by_column(a) -> bool:
    """Whether a reduction over a's last axis of k < 8 terms is faster as
    one numpy call per column than as one reduction, which pays per row:
    from about 32 k rows on (2-core x86, numpy 2.4)."""
    k = a.shape[-1]
    return k < _PAIRWISE_FROM and a.size >= 32 * k * k


def _added(values):
    """The last axis added to 0.0 left to right, as Python's sum adds a
    list, and as numpy reduces fewer than 8 terms."""
    if not _by_column(values) and values.shape[-1] < _PAIRWISE_FROM:
        return np.add.reduce(values, axis=-1)
    total = values[..., 0] + 0.0
    for j in range(1, values.shape[-1]):
        total += values[..., j]
    return total


def _summed(a):
    """np.add.reduce(a, axis=-1), bit for bit: _added's order below 8
    terms, numpy's pairwise sum from 8 on."""
    return _added(a) if a.shape[-1] < _PAIRWISE_FROM else np.add.reduce(a, axis=-1)


def _top(a):
    """np.maximum.reduce(a, axis=-1), bit for bit, column by column where
    that is faster (_by_column): a maximum is exact in any order."""
    if not _by_column(a):
        return np.maximum.reduce(a, axis=-1)
    top = a[..., 0]
    for j in range(1, a.shape[-1]):
        top = np.maximum(top, a[..., j])
    return top


def _block_sums(groups, count, a):
    """The sum of a over each of count blocks: (..., count)."""
    out = np.empty(a.shape[:-1] + (count,))
    for g in groups:
        out[..., g.at] = _summed(g(a))
    return out


def _h_terms(leaf: Regularizer, x):
    """The terms of h(x) / scale on the last axis."""
    if leaf.kind == "entropy":
        return _xlogx(x) if leaf.domain == "simplex" else _xlogx(x) + _xlogx(1.0 - x)
    return x * x if leaf.domain == "simplex" else x * x + (1.0 - x) * (1.0 - x)


def _gradient(leaf: Regularizer, scale, x):
    """grad h(x) of the leaves (..., m, k) of one group, scale their (m, 1) scales."""
    if leaf.kind == "entropy":
        return scale * (1.0 + np.log(x)) if leaf.domain == "simplex" else scale * (np.log(x) - np.log(1.0 - x))
    return 2.0 * scale * x if leaf.domain == "simplex" else scale * (4.0 * x - 2.0)


class AgentReadings:
    """Every agent's conjugate h_i*(y_i), and F and D against a reference,
    read on whole records: (rows..., D) arrays holding every agent's block
    side by side on the last axis.  A caller that needs some agents' values
    picks them from the (rows..., agents) result by index.

    Leaves (a product regularizer's blocks) that share kind, domain and
    width are read as one (rows..., m, k) group, one numpy call per step of
    the formula, so the cost is per group, not per agent.  A product
    agent's terms are added from 0 in block order, and the agents' from 0
    in agent order, as Python's sum adds them, so every value keeps the bits
    of conjugate_value, fenchel_coupling and bregman_distance on the
    agent's slice.  h(ref) is computed once, after ref's domain check.
    """

    def __init__(self, regs, ref=None):
        placed = list(spans(regs))
        self.n = len(placed)
        leaves, owners = [], []  # (leaf, its coordinates), and its agent
        for n, (reg, s) in enumerate(placed):
            for leaf, b in spans(_leaves([reg])):
                leaves.append((leaf, slice(s.start + b.start, s.start + b.stop)))
                owners.append(n)
        self.count = len(leaves)
        # per group: a leaf (its kind, domain and width) and the leaves' scales as an (m, 1) column
        self.groups = [
            (g, leaves[g.members[0]][0], np.array([[leaves[n][0].scale] for n in g.members]))
            for g in _grouped([s for _, s in leaves], lambda n: (leaves[n][0].kind, leaves[n][0].domain))
        ]
        # a product agent's leaves, added from 0; any other agent is its one leaf
        self.products = [(n, [m for m, o in enumerate(owners) if o == n])
                         for n, (reg, _) in enumerate(placed) if isinstance(reg, ProductRegularizer)]
        self.first = np.array([owners.index(n) for n in range(self.n)])
        self.ref = self.h_ref = None
        if ref is not None:
            ref = [np.asarray(v, dtype=float) for v in ref]
            if len(ref) != self.n or any(v.ndim != 1 for v in ref):
                raise ValueError(f"reference must hold one vector per agent, {self.n} in all")
            for (reg, _), v in zip(placed, ref):
                if len(v) != reg.dim:
                    raise ValueError(f"point has dimension {len(v)}, expected {reg.dim}")
            self.ref, h = np.concatenate(ref), np.empty(self.count)
            for g, leaf, scale in self.groups:
                rg = g(self.ref)
                if _outside(leaf, rg).any():
                    raise ValueError(f"point outside {leaf.domain} domain beyond {DOMAIN_TOL}")
                h[g.at] = scale[:, 0] * _summed(_h_terms(leaf, rg))
            self.agents = _grouped([s for _, s in placed])
            self.h_ref = self._per_agent(h)

    def _per_agent(self, values):
        """Leaf values (..., leaves) as agent values (..., agents)."""
        if not self.products:
            return values
        out = values[..., self.first]
        for n, members in self.products:
            total = 0
            for m in members:
                total = total + values[..., m]
            out[..., n] = total
        return out

    def conjugates(self, y, x=None):
        """h_i*(y_i) per agent, (..., agents).  x, when given, holds the
        choice maps of y under these regularizers (a record's own x), which
        a euclidean conjugate reads; without it, y must be finite, and is
        mapped here."""
        return self._read(y, x, x is not None, False)[0]

    def read(self, y, x, mapped=True):
        """(conjugates, F, D) of a record: the agents' h_i*(y_i), and, with
        a reference, the summed F(ref_i, y_i) and D(ref_i, x_i) row by row
        (None, None without one), in one pass over the groups.

        mapped tells that x holds the choice maps of y under these
        regularizers (a record's own x): a euclidean conjugate reads it, as
        does h(x), and no point of it is off its domain; else y is mapped
        here, and a y that is not finite raises ValueError, as
        fenchel_coupling does.  D is NaN on
        every row (axis 0) where bregman_distance would raise for some
        agent and batch entry: an entropy strategy on its boundary, or a
        point off its domain.
        """
        return self._read(y, x, mapped, self.ref is not None)

    def _read(self, y, x, mapped, coupled):
        if not mapped and not np.isfinite(y).all():  # y is mapped here: not a record's own
            raise ValueError("conjugate requires finite payoff vector")
        conjugates = np.empty(y.shape[:-1] + (self.count,))
        if coupled:  # D's terms at every row, NaN rows (bad) set at the end
            h, grad, bad = np.empty(x.shape[:-1] + (self.count,)), np.empty_like(x), np.zeros(len(x), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):  # log(0) at a boundary row
            for g, leaf, scale in self.groups:
                yg, xg, s = g(y), None if x is None else g(x), scale[:, 0]
                if leaf.kind == "entropy":  # the closed forms of conjugate_value
                    u = yg / scale
                    if leaf.domain == "simplex":
                        top = _top(u)
                        conjugates[..., g.at] = s * (top + np.log(_summed(np.exp(u - top[..., None]))))
                    else:
                        conjugates[..., g.at] = s * _summed(np.logaddexp(0.0, u))
                else:  # y / (s * prescale), as BlockChoiceMap divides
                    own = xg if mapped else _UNIT_CHOICE[leaf.kind, leaf.domain](yg / (scale * _PRESCALE[leaf.kind, leaf.domain]))
                    h_own = s * _summed(_h_terms(leaf, own))
                    conjugates[..., g.at] = _summed(own * yg) - h_own
                if not coupled:
                    continue
                h[..., g.at] = h_own if leaf.kind == "euclidean" and mapped else s * _summed(_h_terms(leaf, xg))
                grad[..., g.index] = _gradient(leaf, scale, xg).reshape(xg.shape[:-2] + (-1,))
                off = _outside(leaf, xg) if not mapped else None
                if leaf.kind == "entropy":
                    edge = xg <= 0.0 if leaf.domain == "simplex" else (xg <= 0.0) | (xg >= 1.0)
                    off = edge if off is None else off | np.logical_or.reduce(edge, axis=-1)
                if off is not None and off.any():  # rows are looked for only where some point is off
                    bad |= np.logical_or.reduce(off.reshape(len(x), -1), axis=1)
            conjugates = self._per_agent(conjugates)
            if not coupled:
                return conjugates, None, None
            F = _added(conjugates - _block_sums(self.agents, self.n, y * self.ref) + self.h_ref)
            gaps = _block_sums(self.agents, self.n, grad * (self.ref - x))
            D = _added(self.h_ref - self._per_agent(h) - gaps)
        D[bad] = np.nan
        return conjugates, F, D


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
