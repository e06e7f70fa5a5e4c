"""Phase-space evolution of regularized-leader dynamics.

The state of the system is, per agent, the cumulative payoff vector y_i
(the motion), the cumulative strategy X_i = integral of x_i (the position),
and the current strategy x_i, which is never integrated: it is recomputed
from y_i through the choice map wherever a stage or a snapshot needs it.
The continuous field is

    dX_i/dt = x_i = grad h_i*(y_i)
    dy_i/dt = sum_{j != i} A[i, j] x_j            (+ b[i, j] terms, affine games)

IntegratorConfig chooses one of three schemes and simulate runs it: the
explicit Euler step, which IS the learning rule's discrete-time update; rk4,
the high-fidelity reference for the continuous flow; and the leapfrog, which
splits the conserved energy into a y-part and an X-part and alternates exact
shears, so long-run energy error stays bounded and every step is reversible.

Integration runs on flat state: the record holds y and X as (batch...,
D) arrays, D = sum k_i, with agent i owning the coordinates slices[i].
Each run compiles the game once into the block payoff operator M (M[s_i,
s_j] = A[i, j]) plus, for affine games, the summed drift b, so the field
dy/dt is PayoffOperator.field, M x (+ b), and the motion reconstructed
from the positions is y0 + M X (+ b t).  The choice maps act blockwise
(regularizers.BlockChoiceMap); a product regularizer contributes its
blocks.  x is evaluated only where a stage or a recorded snapshot needs
it.  A cloud of initial conditions evolves as one vectorized trajectory,
one kernel call (KERNELS) per step, on the coordinate-major (D, n)
transpose of its start: row c holds coordinate c of all n starts, so each
agent's block is a contiguous range of rows, which the choice map maps on
those rows and the payoff operator multiplies as A_i @ x[span].  Only the
recorded rows are transposed back.  One start runs on Python floats, as
numpy's per-call cost on 2 to 20 floats dominates: one function generated
per (game, leaf regularizers, scheme) steps it from one snapshot to the
next on local variables, stage points, choice map, payoff field, running
sums, kicks and blow-up check written out in straight-line Python, and
returns lists only at a snapshot, its x included, or at the step that
fails.  It is compiled once per content (_Flow.loop_key: the matrices'
and the drift's bytes, the leaves, the counts and the limits), and it
keeps the bits of the array kernels' operations in their order, every
stored payoff term in a fixed order; numpy keeps only the choice map's
exp and tanh, the start's choice map (and a truncation row's), the
recorded rows and the readings.  A stage point or a kick whose payoffs
are not finite truncates the run, as a blow-up does.  SystemState is the
per-agent view of one phase-space point.
"""

from __future__ import annotations

import platform
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from time import perf_counter

import numpy as np

from .games import GeneralizedGame, NetworkGame
from .regularizers import (
    BlockChoiceMap, NonFinitePayoff, choice_lines, define, fenchel_bregman, literal, payoff_limit,
    regularizer_records, summed,
)

SCHEMES = ("euler", "rk4", "symplectic_leapfrog")
SCHEME_ALIASES = {"leapfrog": "symplectic_leapfrog"}

BLOW_UP_LIMIT = 1e12
SCHEMA_VERSION = 3  # of the trajectory metadata and its JSON sidecar


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str
    eta: float = 1e-3
    horizon: float = 10.0
    stride: int = 10

    def __post_init__(self):
        scheme = SCHEME_ALIASES.get(self.scheme, self.scheme)
        object.__setattr__(self, "scheme", scheme)
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not 0 < self.eta < np.inf:  # nan fails every comparison
            raise ValueError(f"step size must be positive and finite, got {self.eta}")
        if not 0 <= self.horizon < np.inf:
            raise ValueError(f"horizon must be nonnegative and finite, got {self.horizon}")
        if self.horizon / self.eta == np.inf:
            raise ValueError(f"horizon {self.horizon:g} is too many steps of {self.eta:g} to count")
        if not isinstance(self.stride, (int, np.integer)) or self.stride < 1:
            raise ValueError("snapshot stride must be a positive integer")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.eta))

    @property
    def effective_horizon(self) -> float:
        """steps * eta, where a run ends; horizon rounded to whole steps."""
        return self.steps * self.eta


@dataclass(frozen=True)
class SystemState:
    """Phase-space point: time, motions y, positions X, strategies x.

    x is derived (x_i = choice map of y_i) and y0 is the fixed initial
    motion, from which y0 + A X reconstructs the opponents' motions.  A
    trajectory's snapshots hold per-agent views into its flat arrays.
    """

    t: float
    y: tuple[np.ndarray, ...]
    X: tuple[np.ndarray, ...]
    x: tuple[np.ndarray, ...]
    y0: tuple[np.ndarray, ...]


# A row block of one row, or over a span this wide or wider, is not
# multiplied as the mirror A_i @ x[span] on coordinate-major arrays: OpenBLAS
# (0.3.31, Haswell kernels) then takes another path, whose last bits differ
_MIRROR_BELOW_SPAN = 16


class PayoffOperator:
    """The block payoff matrix M of a game, acting on flat arrays: (batch...,
    D) ones, or, on a transposed operator, the coordinate-major (D, n) ones
    that batched runs step on.  join and split act on the last axis.

    Row block i is stored over the narrowest column span that holds every
    stored A[i, j]; over a single neighbour j, the product is x_j @ A[i, j]'
    with the game's own matrix, as a per-agent field computes it.  The
    single-trajectory loops write the product out in a fixed order instead
    (product_lines).  The affine terms b[i, j] of a generalized game are
    kept by edge, so that the energy variants can weigh them edge by edge.
    """

    def __init__(self, game: NetworkGame, transposed: bool = False):
        bounds = np.cumsum((0,) + tuple(game.strategy_counts)).tolist()
        self.slices = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        self.dim = bounds[-1]
        self.game = game
        self.transposed = transposed
        rows = []  # (input span, A_i on it, output slice) per row block
        for i, k in enumerate(game.strategy_counts):
            cols = [j for j in range(game.n) if (i, j) in game.payoffs]
            if not cols:
                rows.append((slice(0, 0), np.zeros((k, 0)), self.slices[i]))
                continue
            if len(cols) == 1:
                rows.append((self.slices[cols[0]], game.payoffs[(i, cols[0])], self.slices[i]))
                continue
            lo, hi = self.slices[cols[0]].start, self.slices[cols[-1]].stop
            block = np.zeros((k, hi - lo))
            for j in cols:
                s = self.slices[j]
                block[:, s.start - lo : s.stop - lo] = game.payoffs[(i, j)]
            rows.append((slice(lo, hi), block, self.slices[i]))
        self.rows = tuple(rows)
        self.b = sorted(game.b.items()) if isinstance(game, GeneralizedGame) else []
        self.drift = self.weighted_drift(lambda i, j: 1.0)
        # as added: a column against a transposed operator's (D, n) arrays
        self._b = self.drift[:, None] if transposed and self.drift is not None else self.drift

    def weighted_drift(self, weight):
        """sum_j weight(i, j) b[i, j] in every agent i's slice; None if no term is nonzero."""
        out = None
        for (i, j), bv in self.b:
            w = weight(i, j)
            if w:
                if out is None:
                    out = np.zeros(self.dim)
                out[self.slices[i]] += w * bv
        return out

    def join(self, parts):
        return np.concatenate([np.asarray(v, dtype=float) for v in parts], axis=-1)

    def split(self, flat) -> tuple[np.ndarray, ...]:
        return tuple(flat[..., s] for s in self.slices)

    def linear(self, x):
        """M x: sum_j A[i, j] x_j for every agent i, without drift.

        Each row block is multiplied straight into its slice of one output,
        as x[..., span] @ A_i'; the slice keeps a BLAS-able stride, so the
        bits are those of a separate product per block.  On a transposed
        operator's (D, n) arrays a block is the mirror, A_i @ x[span] into
        its rows, which OpenBLAS runs as the same kernel on the same memory,
        so the bits are those of the (n, D) product; a block of one row, or
        over a span of 16 or more, would take another path there, and is
        multiplied as x[span]' @ A_i' on a C-ordered copy of its span.
        """
        if not self.transposed:
            out = np.empty(x.shape[:-1] + (self.dim,))
            for span, a, s in self.rows:
                np.matmul(x[..., span], a.T, out=out[..., s])
            return out
        out = np.empty((self.dim,) + x.shape[1:])
        for span, a, s in self.rows:
            if len(a) > 1 and span.stop - span.start < _MIRROR_BELOW_SPAN:
                np.matmul(a, x[span], out=out[s])
            else:
                out[s] = np.matmul(np.ascontiguousarray(x[span].T), a.T).T
        return out

    def field(self, x):
        """dy/dt at strategies x."""
        out = self.linear(x)
        return out if self.drift is None else np.add(out, self._b, out=out)

    def motion(self, y0, X, t):
        """y0 + M X (+ b t): the motions reconstructed from positions.  A
        transposed operator adds into the product, which keeps its C order
        whatever y0's layout."""
        z = self.linear(X)
        if self.transposed:
            z = np.add(y0, z, out=z)
            return z if self.drift is None else np.add(z, self._b * t, out=z)
        z = y0 + z
        return z if self.drift is None else z + self._b * t


def product_lines(counts, payoffs, x, out, drift=None) -> list[str]:
    """Statements that set the names out to the payoff product of the names
    x: output r of agent i is 0.0 + A[i, j][r, c]*x_j[c] + ... over every
    stored entry, zeros included, neighbours j and columns c ascending, a
    fixed order, unlike BLAS on a handful of floats, plus drift[r] when
    given.  Rows longer than _CHAIN terms run on in the temporaries p0, p1, ..."""
    starts = np.cumsum((0,) + tuple(counts)).tolist()
    lines, n = [], 0
    for i, k in enumerate(counts):
        cols = [j for j in range(len(counts)) if (i, j) in payoffs]
        for r in range(k):
            terms = [
                f"{literal(a)}*{x[starts[j] + c]}"
                for j in cols for c, a in enumerate(payoffs[(i, j)][r].tolist())
            ]
            more, expr = summed(f"p{n}", "0.0", terms)
            if drift is not None:
                expr += f" + {literal(drift[n])}"
            lines += more + [f"{out[n]} = {expr}"]
            n += 1
    return lines


def _shift(u, h, v, spent=False):  # u + h v as h v + u, the same bits: in v if spent (read no more), else new
    w = np.multiply(v, h, out=v if spent else None)
    w += u
    return w


class _Flow:
    """A game, its regularizers and a start y0 (a flat array), compiled for
    flat stepping: a 1-D start through its generated loop (advance), a
    batched one through the array kernels on coordinate-major (D, n)
    arrays, y0 among them once simulate has transposed it."""

    def __init__(self, game: NetworkGame, regs, y0):
        if tuple(r.dim for r in regs) != tuple(game.strategy_counts):
            raise ValueError("regularizer dimensions do not match the game's strategy counts")
        y0 = tuple(np.asarray(v, dtype=float) for v in y0)
        if len(y0) != len(regs) or any(v.shape[-1] != reg.dim for reg, v in zip(regs, y0)):
            raise ValueError("initial payoff vector does not match the regularizer")
        self.op = PayoffOperator(game, transposed=True)
        self.choice = BlockChoiceMap(regs)
        self.field = self.op.field
        self.y0 = self.op.join(y0)
        # per agent, the |y| past which a step counts as a blow-up; the
        # array path checks their minimum first, against the whole of y
        self.limits = tuple(min(BLOW_UP_LIMIT, payoff_limit(reg)) for reg in regs)
        self.limit = min(self.limits)

    def kick(self, X, t):
        """The leapfrog force: the field at the motions reconstructed from X."""
        return self.field(self.choice(self.op.motion(self.y0, X, t)))

    def advance(self, scheme):
        """The single-trajectory loop of scheme on this flow (_loop_source),
        looked up by content."""
        return _loop(self.loop_key(scheme))

    def loop_key(self, scheme):
        """All that the loop's source reads: the scheme, the leaves, the
        strategy counts, each edge with its matrix's shape and bytes, the
        summed drift's bytes and the agents' limits.  Bytes keep -0.0 apart
        from 0.0, and a negative nan apart from a positive one."""
        game = self.op.game
        edges = tuple((e, a.shape, a.tobytes()) for e, a in sorted(game.payoffs.items()))
        drift = None if self.op.drift is None else self.op.drift.tobytes()
        return scheme, self.choice.leaves, tuple(game.strategy_counts), edges, drift, self.limits


# Array kernels: (flow, t, y, X, x, carry, eta) -> (y, X, carry), on
# coordinate-major (D, n) arrays.  x is the choice map of y when the caller
# already has it (None otherwise); carry is the leapfrog's last kick, (time,
# kick at X), carried over from the previous step (None from the others).  A
# kernel writes only into arrays it allocated, never into y, X or a handed x.


def _euler(flow, t, y, X, x, carry, eta):
    """Explicit Euler, the learning rule itself: X advances with the pre-step x.

    Deliberately first-order: the monotone-energy statements are about this map.
    """
    spent = x is None  # a choice mapped here is scaled into the new X
    x = flow.choice(y) if spent else x
    return _shift(y, eta, flow.field(x), spent=True), _shift(X, eta, x, spent), None


def _rk4(flow, t, y, X, x, carry, eta):
    """Classical RK4 on the joint (X, y) field, which depends on y only.

    Each stage's choice map serves both dX and dy: y = y0 + sum A X holds to rounding.
    """
    # k1 + 2 k2 + 2 k3 + k4 as two running sums, added in that order (the same bits); each
    # stage is released before the next choice map runs.  A spent choice holds the running
    # sum it is added into, a spent field the next stage's point; the sums become y and X
    sx = flow.choice(y) if x is None else x
    del x  # a handed x is the caller's: released once sx moves into k2's choice
    sy = flow.field(sx)
    kx = flow.choice(_shift(y, 0.5 * eta, sy))
    ky = flow.field(kx)
    sx = _shift(sx, 2.0, kx, spent=True)
    sy = _shift(sy, 2.0, ky)
    ky = _shift(y, 0.5 * eta, ky, spent=True)  # the third stage's point
    kx = flow.choice(ky)
    del ky
    ky = flow.field(kx)
    sx = _shift(sx, 2.0, kx, spent=True)
    sy = _shift(sy, 2.0, ky)
    ky = _shift(y, eta, ky, spent=True)  # the fourth stage's point
    kx = flow.choice(ky)
    del ky
    sx += kx  # no product at weight 1
    sy += flow.field(kx)
    sixth = eta / 6.0
    return _shift(y, sixth, sy, spent=True), _shift(X, sixth, sx, spent=True), None


def _leapfrog(flow, t, y, X, x, carry, eta):
    """Kick-drift-kick leapfrog: kicks move y by the force at the positions alone
    (the motions y0 + A X), the drift moves X by the choice map of the kicked y.

    Each is a shear, so a step is volume-preserving, time-symmetric and second-order.
    It needs sigma in {-1, +1}, which simulate checks: only then is the kick force a gradient.
    """
    del x  # not read: the first kick needs no choice of y
    half = 0.5 * eta
    if carry is None or carry[0] != t and flow.op.drift is not None:  # t - eta + eta may not be t
        carry = t, flow.kick(X, t)
    y_half = _shift(y, half, carry[1], spent=True)  # the spent kick holds the half step
    X = _shift(X, eta, flow.choice(y_half), spent=True)
    kick = flow.kick(X, t + eta)
    return _shift(y_half, half, kick), X, (t + eta, kick)


KERNELS = {"euler": _euler, "rk4": _rk4, "symplectic_leapfrog": _leapfrog}


# The single-trajectory loops: one generated function per (scheme, leaves,
# game), advance(y0, y, X, x, carry, i, n, eta), runs one start from step i
# to step n on local floats and returns (n, y, X, x, carry, None), x the
# choice map of the returned y, which euler and rk4 take back as the next
# call's first stage (the leapfrog reads none); carry is the leapfrog's
# last kick, (time, force).  The step that fails returns (step, y, X, None,
# None, stop), with y and X the last finite state and stop either the
# step's y, some |y_c| past its agent's limit or not finite, or the
# NonFinitePayoff that a stage point or a kick raised.  The operations are
# the array kernels' in their order; the choice map and the payoff product
# are the fragments choice_lines and product_lines write, each written
# once per loop: its tokens set the compile's memory.


class _Writer:
    """The lines of one generated function, with the fragments written into
    it kept apart, so that their names can be checked (source)."""

    def __init__(self, head):
        self.lines, self.skeleton, self.fragments = [head], [head], []

    def line(self, depth, text):
        self.lines.append("    " * depth + text)
        self.skeleton.append("    " * depth + text)

    def each(self, depth, template, *names):
        """One statement per coordinate: template filled with each coordinate's names."""
        for row in zip(*names):
            self.line(depth, template.format(*row))

    def fragment(self, depth, lines, ins, outs):
        self.lines += ["    " * depth + text for text in lines]
        self.skeleton.append("    " * depth + "pass")
        self.fragments.append((lines, set(ins), set(outs)))

    def source(self):
        """The source, once no fragment's temporaries can overwrite a name of
        the loop's and the loop binds no name a fragment reads."""
        own, read = _names("\n".join(self.skeleton))
        loop = own | read | {name for _, ins, outs in self.fragments for name in ins | outs}
        for lines, ins, outs in self.fragments:
            bound, used = _names("\n".join(["def fragment():", *("    " + text for text in lines)]))
            clash = ins & outs | (bound - outs) & loop | own & (used - ins)
            if clash:  # raised, not asserted: python -O would skip the check
                raise AssertionError(f"generated names collide: {sorted(clash)}")
        return "\n".join(self.lines) + "\n"


def _names(source):
    """(names bound, other names read) by the one function source defines:
    its arguments and locals, and the globals and attributes it reads."""
    code = next(c for c in compile(source, "<generated>", "exec").co_consts if hasattr(c, "co_varnames"))
    return set(code.co_varnames), set(code.co_names)


@lru_cache(maxsize=128)
def _loop(key):
    """The compiled loop of one content key (see _Flow.loop_key)."""
    return define(_loop_source(*key))


def _loop_source(scheme, leaves, counts, edges, drift, limits):
    """Source of advance for scheme on the leaf regularizers, the strategy
    counts, the edges' (key, shape, bytes), the summed drift's bytes (or
    None) and the agents' blow-up limits.

    Euler and rk4 end each step by mapping its y, x = choice(y), after the
    check: the next step's first stage, and the call's x at its last step.
    rk4's four stages run in one loop around one field and one choice
    fragment, the last stage's choice mapping the new y; the leapfrog's
    passes share one product and one choice fragment, which also maps the
    call's closing y.  Compiling takes memory in proportion to the tokens:
    written out per stage, the six-agent benchmark network's loops would
    take about twice as many.
    """
    payoffs = {e: np.frombuffer(data).reshape(shape) for e, shape, data in edges}
    drift = None if drift is None else np.frombuffer(drift).tolist()
    dim = sum(counts)
    y, X, x, yn, Xn, g, k, p, sx, sy, yh, m, F, start = (
        [f"{name}_{c}" for c in range(dim)]
        for name in ("y", "X", "x", "yn", "Xn", "g", "k", "p", "sx", "sy", "yh", "m", "F", "y0")
    )
    w = _Writer("def advance(y0, y, X, x, carry, i, n, eta):")

    def choice(depth, ins, outs):
        w.fragment(depth, choice_lines(leaves, ins, outs), ins, outs)

    def field(depth, ins, outs):
        w.fragment(depth, product_lines(counts, payoffs, ins, outs, drift), ins, outs)

    agent = [a for a, count in enumerate(counts) for _ in range(count)]
    inside = " and ".join(f"{literal(-limits[a])} <= {v} <= {literal(limits[a])}" for v, a in zip(yn, agent))

    def settle(depth):
        """The step's check (false for nan and inf too), then yn and Xn become y and X."""
        w.line(depth, f"if not ({inside}):")
        w.line(depth + 1, f"stop = {listed(yn)}")
        w.line(depth + 1, "break")
        w.each(depth, "{} = {}", y, yn)
        w.each(depth, "{} = {}", X, Xn)

    def listed(names):
        return f"[{', '.join(names)}]"

    leapfrog = scheme == "symplectic_leapfrog"
    w.line(1, f"{', '.join(y)}, = y")
    w.line(1, f"{', '.join(X)}, = X")
    if scheme == "euler":
        w.line(1, f"{', '.join(x)}, = x")
    if scheme == "rk4":
        w.line(1, f"{', '.join(g)}, = x")
        w.line(1, "h = 0.5 * eta")
        w.line(1, "sixth = eta / 6.0")
        w.line(1, "stages = ((None, h), (2.0, h), (2.0, eta), (1.0, None))")
    if leapfrog:
        w.line(1, f"{', '.join(start)}, = y0")
        w.line(1, "half = 0.5 * eta")
        w.line(1, "tf = None")
        w.line(1, "if carry is not None:")
        w.line(2, "tf, F = carry")
        w.line(2, f"{', '.join(F)}, = F")
    w.line(1, "step, stop = i + 1, None")
    w.line(1, "try:")
    w.line(2, "for step in range(i + 1, n + 1):")
    if scheme == "euler":
        field(3, x, k)
        w.each(3, "{} = {} + eta * {}", yn, y, k)
        w.each(3, "{} = {} + eta * {}", Xn, X, x)
        settle(3)
        choice(3, y, x)
    elif scheme == "rk4":
        # a stage multiplies its choice g, adds it into the running sums
        # with weight wt, then maps its successor's point: y + hs * k, or,
        # after the fourth stage, the step's new y
        w.line(3, "for wt, hs in stages:")
        field(4, g, k)
        w.line(4, "if wt is None:")
        w.each(5, "{} = {}", sx, g)
        w.each(5, "{} = {}", sy, k)
        w.line(4, "else:")
        w.each(5, "{} = {} + wt * {}", sx, sx, g)
        w.each(5, "{} = {} + wt * {}", sy, sy, k)
        w.line(4, "if hs is None:")
        w.each(5, "{} = {} + sixth * {}", yn, y, sy)
        w.each(5, "{} = {} + sixth * {}", Xn, X, sx)
        settle(5)
        w.each(5, "{} = {}", p, y)
        w.line(4, "else:")
        w.each(5, "{} = {} + hs * {}", p, y, k)
        choice(4, p, g)
        w.line(3, "if stop is not None:")
        w.line(4, "break")
    else:
        # passes around one product and one choice fragment.  A motion pass
        # multiplies the positions g, m = y0 + A g + b tf, and maps m; a force
        # pass multiplies that choice, F = A g + b, and either kicks y by
        # half, drifts X by the choice of the kicked y and sets g to the new
        # positions, or ends the step: it kicks y again and, at the call's
        # last step, maps the new y.  A step whose carried kick is at (X, t)
        # starts there, with no product.
        b = None if drift is None else [literal(v) for v in drift]
        w.line(3, "t = (step - 1) * eta")
        w.line(3, "ready = tf is not None" if drift is None else "ready = tf == t")  # t - eta + eta may not be t
        w.line(3, "motion, last = not ready, False")
        w.line(3, "if not ready:")
        w.each(4, "{} = {}", g, X)
        w.line(4, "tf = t")
        w.line(3, "while True:")
        w.line(4, "if ready:")
        w.line(5, "ready = False")
        w.line(4, "else:")
        w.fragment(5, product_lines(counts, payoffs, g, F), g, F)
        w.line(5, "if motion:")
        if b is None:
            w.each(6, "{} = {} + {}", m, start, F)
        else:
            w.each(6, "{} = {} + {} + {}*tf", m, start, F, b)
            w.line(5, "else:")
            w.each(6, "{} = {} + {}", F, F, b)
        w.line(4, "if not motion:")
        w.line(5, "if last:")
        w.each(6, "{} = {} + half * {}", yn, yh, F)
        settle(6)
        w.line(6, "if step < n:")
        w.line(7, "break")
        w.each(6, "{} = {}", m, y)
        w.line(5, "else:")
        w.each(6, "{} = {} + half * {}", yh, y, F)
        w.each(6, "{} = {}", m, yh)
        choice(4, m, g)
        w.line(4, "if not motion:")
        w.line(5, "if last:")
        w.line(6, "break")
        w.each(5, "{} = {} + eta * {}", Xn, X, g)
        w.each(5, "{} = {}", g, Xn)
        w.line(5, "tf = t + eta")
        w.line(5, "last = True")
        w.line(4, "motion = not motion")
        w.line(3, "if stop is not None:")
        w.line(4, "break")
    w.line(1, "except NonFinitePayoff as err:")
    w.line(2, "stop = err")
    mapped = f"{listed(x if scheme == 'euler' else g)} if stop is None else None"
    carry = f"(tf, {listed(F)}) if stop is None else None" if leapfrog else "None"
    w.line(1, f"return step, {listed(y)}, {listed(X)}, {mapped}, {carry}, stop")  # one exit: its lists cost tokens
    return w.source()


@dataclass(frozen=True)
class _Snapshots(Sequence):
    """A trajectory's snapshots as SystemStates, each built when it is asked for."""

    traj: Trajectory

    def __len__(self) -> int:
        return len(self.traj.t)

    def __getitem__(self, k: int) -> SystemState:  # past the end, tr.y[k] raises IndexError
        tr = self.traj
        if tr.X is None:
            raise ValueError("snapshot states need X and x, which simulate(..., motions_only=True) does not record")
        y, X, x, y0 = (tuple(a[..., s] for s in tr.slices) for a in (tr.y[k], tr.X[k], tr.x[k], tr.y[0]))
        return SystemState(float(tr.t[k]), y, X, x, y0)


@dataclass
class Trajectory:
    """Recorded snapshots as arrays, plus the instrument readings.

    t is (snapshots,); y, X and x are (snapshots, batch..., D), agent i
    owning the coordinates slices[i], and y[0] is the start; X and x are
    None in a record made with simulate(..., motions_only=True).  energy,
    fenchel and bregman are aligned with t (NaN where a reading is
    unavailable: no sigma tag, a payoff or drift coefficient that is not
    finite, no reference profile, or a boundary strategy under an entropy
    regularizer); fenchel and bregman are None without the
    reference profile that metadata["ref"] records.
    """

    t: np.ndarray
    y: np.ndarray
    X: np.ndarray | None
    x: np.ndarray | None
    slices: tuple[slice, ...]
    energy: np.ndarray
    fenchel: np.ndarray | None
    bregman: np.ndarray | None
    metadata: dict = dataclass_field(default_factory=dict)

    @property
    def states(self) -> Sequence[SystemState]:
        """The snapshots as per-agent SystemState views, built on access."""
        return _Snapshots(self)

    @property
    def batched(self) -> bool:
        return self.y.ndim > 2

    def strategy_matrix(self) -> np.ndarray:
        """Snapshots-by-coordinates matrix of the concatenated strategies."""
        if self.batched:
            raise ValueError("strategy matrix is only defined for single trajectories")
        if self.x is None:
            raise ValueError("strategy matrix needs x, which simulate(..., motions_only=True) does not record")
        return self.x

    def energy_drift(self) -> tuple[float, float]:
        """(max |H - H(0)|, relative drift) over the recorded snapshots."""
        h = np.asarray(self.energy, dtype=float)
        if h.size == 0 or np.any(np.isnan(h)):
            return float("nan"), float("nan")
        h0 = h[0]
        drift = float(np.max(np.abs(h - h0)))
        return drift, drift / max(1.0, float(np.max(np.abs(h0))))


NON_FINITE = "non-finite payoff vector"


def _blow_up(y, flow):
    """Why the step to y (coordinates on axis 0) ends the run, or None: the
    first agent whose |y| is not finite or passes its limit."""
    if -flow.limit <= y.min() and y.max() <= flow.limit:
        return None  # nan compares False, so it and +-inf are diagnosed below
    for agent, (s, limit) in enumerate(zip(flow.op.slices, flow.limits), 1):
        peak = float(np.abs(y[s]).max())  # the first offending agent names the reason
        if not np.isfinite(peak):
            return NON_FINITE
        if peak > BLOW_UP_LIMIT:
            return f"|y| exceeded {BLOW_UP_LIMIT:g}"
        if peak > limit:
            return f"agent {agent}: |y| exceeded {limit:g}, past the precision of its euclidean projection"
    return None


def _run_single(flow, config, rows, y, X, x):
    """Step one start (lists of floats) through its generated loop, one call
    per snapshot interval, writing the snapshots into rows from row 1.

    Returns (rows written, steps taken, the reason the run ended early or
    None, and the last finite y and X).  x, the start's choice map, is the
    first call's x; each call hands back its snapshot's.
    """
    ts, ys, Xs, xs = rows
    eta, stride, n_steps = config.eta, config.stride, config.steps
    ends = [*range(stride, n_steps + 1, stride)] + [n_steps] * (n_steps % stride != 0)
    advance = flow.advance(config.scheme) if ends else None  # no step: no code, no check
    start, carry, i, k = y, None, 0, 1
    for end in ends:
        i, y, X, x, carry, stop = advance(start, y, X, x, carry, i, end, eta)
        if stop is not None:  # the step's y, or what a stage point or a kick raised
            reason = NON_FINITE if isinstance(stop, NonFinitePayoff) else _blow_up(np.array(stop), flow)
            return k, i, reason, y, X
        ts[k], ys[k] = end * eta, y
        if Xs is not None:
            Xs[k], xs[k] = X, x
        k += 1
    return k, i, None, y, X


def _run_batched(flow, config, rows, state):
    """_run_single for a batch of starts, coordinate-major (D, n) arrays,
    one kernel call per step; each snapshot is written back transposed.

    state is [y, X, x], which the runner empties, so that no caller's name
    keeps the start's X alive; carry is the leapfrog's last kick, which each
    kernel call hands back for the next.  The x left in state, the start's
    choice map and then each recorded x, is popped into the next kernel
    call: the kernel may drop it as soon as it is spent."""
    y, X = state.pop(0), state.pop(0)
    ts, ys, Xs, xs = rows
    kernel, eta, stride, n_steps = KERNELS[config.scheme], config.eta, config.stride, config.steps
    t, carry, i, k = 0.0, None, 0, 1
    for i in range(1, n_steps + 1):
        try:
            y_next, X_next, carry = kernel(flow, t, y, X, state.pop() if state else None, carry, eta)
        except NonFinitePayoff:  # a stage point or a kick
            return k, i, NON_FINITE, y, X
        reason = _blow_up(y_next, flow)
        if reason is not None:
            return k, i, reason, y, X
        t, y, X = i * eta, y_next, X_next  # t: no running sum, whose error would enter b t
        if i % stride == 0 or i == n_steps:
            ts[k] = t
            _put(ys[k], y)
            if Xs is not None:  # x: the record's, and the next step's first stage
                state.append(flow.choice(y))
                _put(Xs[k], X), _put(xs[k], state[-1])
            k += 1
    return k, i, None, y, X


def _put(row, a):
    """Write the coordinate-major a, (D,) or (D, n), into a record row (batch..., D)."""
    row.reshape(-1, len(a))[...] = a.T


def _record(rows, shape, motions_only):
    """The empty record: t, then y, X and x (None if motions_only) as (rows, batch..., D) arrays."""
    try:
        t, y = np.empty(rows), np.empty((rows,) + shape)
        return (t, y, None, None) if motions_only else (t, y, np.empty_like(y), np.empty_like(y))
    except (ValueError, MemoryError) as err:  # numpy's own messages name neither
        raise ValueError(f"cannot allocate {rows} snapshot rows of shape {shape}: {err}") from None


def simulate(
    game: NetworkGame,
    regs,
    y0,
    config: IntegratorConfig,
    ref=None,
    energy: str = "auto",
    motions_only: bool = False,
) -> Trajectory:
    """Iterate the configured stepper from (t=0, X=0, y=y0).

    Records every stride-th state (plus the first and last) into rows of
    preallocated (snapshots, batch..., D) arrays; deterministic given its
    inputs.  The instruments (H, and F and D against ref) are read once per
    run, after the loop, on those arrays.  A non-finite or exploding state,
    or a stage point or kick whose payoffs are not finite, truncates the
    trajectory and leaves a diagnostic in the metadata instead of raising:
    discrete-time divergence is expected behavior, not an error (a start
    that is not finite still raises, as does a leapfrog run on a game with
    no sigma tag).  Exploding means |y| past BLOW_UP_LIMIT, or, for an
    agent with a euclidean simplex block, past the lower
    regularizers.payoff_limit, where its projection can miss the simplex.
    The last finite state then ends the record.  The metadata's
    timing block holds the wall time of the stepping loop and of the
    readings, and the steps taken per second of stepping; its io_s, the time
    spent writing the trajectory, is 0 until a writer fills it in.  The
    metadata also names the Python and numpy versions of the run; its y0 are
    views of the start row y[0] and its ref float copies, which the sidecar
    writer turns into lists.  With motions_only the record holds t and y
    alone (X and x None), and no choice map runs for an x row; it takes
    energy="none" and no ref, the readings being of X and x.
    """
    from .hamiltonian import select_energy  # here: hamiltonian imports this module

    eta, stride = config.eta, config.stride
    if motions_only and (ref is not None or energy != "none"):
        raise ValueError('motions_only=True records no X or x to read: pass energy="none" and no ref')
    flow = _Flow(game, regs, y0)
    if config.scheme == "symplectic_leapfrog" and game.sigma not in (-1, 1):
        raise ValueError("no Hamiltonian structure certified: game has no sigma tag")
    ref = None if ref is None else [np.array(v, dtype=float) for v in ref]  # small copies
    energy_fn, variant = select_energy(game, regs, energy)

    start = perf_counter()
    shape, single = flow.y0.shape, flow.y0.ndim == 1
    # a batch steps on its start transposed once into (D, n)
    y = flow.y0 if single else np.ascontiguousarray(flow.y0.reshape(-1, shape[-1]).T)
    x = flow.choice(y)  # a non-finite start raises here
    n_steps = config.steps
    ts, ys, Xs, xs = record = _record(n_steps // stride + 1 + (n_steps % stride != 0), shape, motions_only)
    ts[0], ys[0] = 0.0, flow.y0
    if Xs is not None:
        Xs[0] = 0.0
        _put(xs[0], x)
    # the start row serves as y0 (a transposed view in a batch): no second copy lives through the run
    if single:
        flow.y0 = ys[0]
        k, i, reason, y, X = _run_single(flow, config, record, y.tolist(), [0.0] * len(y), x.tolist())
    else:
        # a motions-only run hands its first kernel no x, which Python 3.10
        # would keep alive through the step: the kernel maps the start again
        flow.y0, state = ys[0].reshape(-1, shape[-1]).T, [y, np.zeros_like(y)] + [x] * (Xs is not None)
        del y, x
        k, i, reason, y, X = _run_batched(flow, config, record, state)
    diagnostics = {"truncated": reason is not None, "blow_up_step": None if reason is None else i, "reason": reason}
    if reason is not None and (i - 1) % stride:  # the last finite state ends the record
        y, X = np.asarray(y), np.asarray(X)  # lists of floats, after a single run
        ts[k] = (i - 1) * eta
        _put(ys[k], y)
        if Xs is not None:
            _put(Xs[k], X), _put(xs[k], flow.choice(y))
        k += 1
    ts, ys, Xs, xs = (None if a is None else a[:k] for a in record)
    step_s = perf_counter() - start

    start = perf_counter()
    H = np.full(k, np.nan)
    coefficients = (*game.payoffs.values(), 0.0 if flow.op.drift is None else flow.op.drift)
    if energy_fn is not None and all(np.isfinite(c).all() for c in coefficients):  # else A X, b t are nan at 0
        # t as a (snapshots, 1, ...) column against the states
        H = energy_fn(ys, Xs, ys[0], np.reshape(ts, (-1,) + (1,) * (ys.ndim - 1))).value
    F, D = (None, None) if ref is None else fenchel_bregman(regs, ref, ys, xs)
    instruments_s = perf_counter() - start

    return Trajectory(
        ts, ys, Xs, xs, flow.op.slices, energy=H, fenchel=F, bregman=D,
        metadata={
            "schema_version": SCHEMA_VERSION,
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
            "scheme": config.scheme,
            "eta": config.eta,
            "horizon": config.horizon,
            "effective_horizon": config.effective_horizon,
            "stride": config.stride,
            "energy_variant": variant,
            "regularizers": regularizer_records(regs),
            "y0": list(flow.op.split(ys[0])),  # views of the recorded start
            "ref": ref,
            "diagnostics": diagnostics,
            "timing": {
                "step_s": step_s,
                "instruments_s": instruments_s,
                "io_s": 0.0,
                "steps_per_s": i / step_s if step_s > 0 else 0.0,
            },
        },
    )


def sample_payoff_ball(center, radius: float, n: int, seed: int):
    """n initial payoff vectors drawn uniformly from a ball around center.

    Returns one (n, k_i) array per agent; the same seed reproduces the same
    cloud exactly.
    """
    if not 0 <= radius < np.inf:
        raise ValueError(f"radius must be {'nonnegative' if radius < 0 else 'finite'}, got {radius}")
    rng = np.random.default_rng(seed)
    center = [np.asarray(v, dtype=float) for v in center]
    dims = [v.shape[-1] for v in center]
    total = sum(dims)
    direction = rng.normal(size=(n, total))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=(n, 1)) ** (1.0 / total)
    points = direction * radii
    out, start = [], 0
    for v, k in zip(center, dims):
        out.append(v[None, :] + points[:, start : start + k])
        start += k
    return tuple(out)
