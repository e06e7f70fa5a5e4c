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

Integration runs on flat state: y and X are (batch..., D) arrays, D = sum
k_i, with agent i owning the coordinates slices[i].  Each run compiles the
game once into the block payoff operator M (M[s_i, s_j] = A[i, j]) plus,
for affine games, the summed drift b, so the field dy/dt is
PayoffOperator.field, x @ M' (+ b), and the motion reconstructed from the
positions is y0 + X @ M' (+ b t).  The choice maps act blockwise
(regularizers.BlockChoiceMap); a product regularizer contributes its
blocks.  One loop in simulate serves every scheme, and it evaluates x only
where a stage or a recorded snapshot needs it.  A cloud of initial
conditions evolves as one vectorized trajectory; one start steps on lists
of Python floats, as numpy's per-call cost on 2 to 20 floats dominates, and
numpy keeps only the choice map's exp and tanh, the recorded rows and the
readings.  SystemState is the per-agent view of one phase-space point.
"""

from __future__ import annotations

import platform
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field
from operator import itemgetter, mul
from time import perf_counter

import numpy as np

from .games import GeneralizedGame, NetworkGame
from .regularizers import BlockChoiceMap, choice_map, fenchel_bregman, payoff_limit

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
        if not self.eta > 0:
            raise ValueError("step size must be positive")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.stride < 1:
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
    motion, carried along because the energy functions reconstruct the
    opponents' motions as y0 + A X.  A trajectory's snapshots hold
    per-agent views into its flat arrays.
    """

    t: float
    y: tuple[np.ndarray, ...]
    X: tuple[np.ndarray, ...]
    x: tuple[np.ndarray, ...]
    y0: tuple[np.ndarray, ...]


def initial_state(regs, y0) -> SystemState:
    y0 = tuple(np.asarray(v, dtype=float) for v in y0)
    for reg, v in zip(regs, y0):
        if v.shape[-1] != reg.dim:
            raise ValueError("initial payoff vector does not match the regularizer")
    x = tuple(choice_map(reg, v) for reg, v in zip(regs, y0))
    X = tuple(np.zeros_like(v) for v in y0)
    return SystemState(0.0, y0, X, x, y0)


def consistent_state(game: NetworkGame, regs, y0, X, t: float = 0.0) -> SystemState:
    """State whose motions are exactly the reconstruction from (y0, X, t).

    Useful for probing the structure equations at arbitrary phase-space
    points without integrating there.
    """
    y0 = tuple(np.asarray(v, dtype=float) for v in y0)
    X = tuple(np.asarray(v, dtype=float) for v in X)
    op = PayoffOperator(game)
    y = op.split(op.motion(op.join(y0), op.join(X), t))
    x = tuple(choice_map(reg, v) for reg, v in zip(regs, y))
    return SystemState(t, y, X, x, y0)


class PayoffOperator:
    """The block payoff matrix M of a game, acting on flat (batch..., D) arrays
    or on one flat list of Python floats.

    On arrays, row block i is stored over the narrowest column span that
    holds every stored A[i, j]; over a single neighbour j, the product is
    x_j @ A[i, j]' with the game's own matrix, as a per-agent field computes
    it.  On a list, output r of agent i is s = 0.0, then s += A[i, j][r, c]
    * x_j[c] over the stored entries, neighbours j and columns c ascending:
    a fixed order, unlike BLAS on a handful of floats.  The affine terms
    b[i, j] of a generalized game are kept by edge, so that the energy
    variants can weigh them edge by edge.
    """

    def __init__(self, game: NetworkGame):
        bounds = np.cumsum((0,) + tuple(game.strategy_counts)).tolist()
        self.slices = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        self.dim = bounds[-1]
        rows = []  # (input span, A' on it, output slice) per row block
        terms = []  # (gather of the stored columns, coefficient rows) per row block
        for i, k in enumerate(game.strategy_counts):
            cols = [j for j in range(game.n) if (i, j) in game.payoffs]
            index = [c for j in cols for c in range(self.slices[j].start, self.slices[j].stop)]
            lo, hi = (index[0], index[-1] + 1) if index else (0, 0)
            take = itemgetter(slice(lo, hi)) if hi - lo == len(index) else itemgetter(*index)
            coefs = tuple(tuple(a for j in cols for a in game.payoffs[(i, j)][r].tolist()) for r in range(k))
            terms.append((take, coefs))
            if not cols:
                rows.append((slice(0, 0), np.zeros((0, k)), self.slices[i]))
                continue
            if len(cols) == 1:
                rows.append((self.slices[cols[0]], game.payoffs[(i, cols[0])].T, self.slices[i]))
                continue
            lo, hi = self.slices[cols[0]].start, self.slices[cols[-1]].stop
            block = np.zeros((k, hi - lo))
            for j in cols:
                s = self.slices[j]
                block[:, s.start - lo : s.stop - lo] = game.payoffs[(i, j)]
            rows.append((slice(lo, hi), block.T, self.slices[i]))
        self.rows, self.terms = tuple(rows), tuple(terms)
        self.b = sorted(game.b.items()) if isinstance(game, GeneralizedGame) else []
        self.drift = self.weighted_drift(lambda i, j: 1.0)
        self.drift_floats = None if self.drift is None else self.drift.tolist()

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
        """x @ M': sum_j A[i, j] x_j for every agent i, without drift.

        On arrays, each row block is multiplied straight into its slice of
        one output; the slice keeps a BLAS-able stride, so the bits are
        those of a separate x_span @ A' per block.
        """
        if isinstance(x, list):
            out = []
            for take, coefs in self.terms:
                v = take(x)
                for row in coefs:
                    s = 0.0
                    for p in map(mul, row, v):
                        s += p
                    out.append(s)
            return out
        out = np.empty(x.shape[:-1] + (self.dim,))
        for span, mt, s in self.rows:
            np.matmul(x[..., span], mt, out=out[..., s])
        return out

    def field(self, x):
        """dy/dt at strategies x."""
        out = self.linear(x)
        if self.drift is None:
            return out
        return [s + b for s, b in zip(out, self.drift_floats)] if isinstance(out, list) else out + self.drift

    def motion(self, y0, X, t):
        """y0 + X @ M' (+ b t): the motions reconstructed from positions."""
        z = self.linear(X)
        if not isinstance(z, list):
            z = y0 + z
            return z if self.drift is None else z + self.drift * t
        if self.drift is None:
            return [a + s for a, s in zip(y0, z)]
        return [a + s + b * t for a, s, b in zip(y0, z, self.drift_floats)]


def _shift(u, h, v):  # u + h v, a new array
    return u + h * v


def _accumulate(u, h, v):  # u + h v in place, the same bits; no product at h = 1
    u += v if h == 1.0 else h * v
    return u


def _shift_floats(u, h, v):  # u + h v on lists of floats, a new list
    return [a + h * b for a, b in zip(u, v)]


class _Flow:
    """A game, its regularizers and a start y0, compiled for flat stepping: a 1-D
    start on lists of Python floats, a batched one on arrays, with shift and
    accumulate the kernels' vector arithmetic on either."""

    def __init__(self, game: NetworkGame, regs, y0):
        if tuple(r.dim for r in regs) != tuple(game.strategy_counts):
            raise ValueError("regularizer dimensions do not match the game's strategy counts")
        y0 = tuple(np.asarray(v, dtype=float) for v in y0)
        if len(y0) != len(regs) or any(v.shape[-1] != reg.dim for reg, v in zip(regs, y0)):
            raise ValueError("initial payoff vector does not match the regularizer")
        self.op = PayoffOperator(game)
        self.choice = BlockChoiceMap(regs)
        self.field = self.op.field
        y0 = self.op.join(y0)
        self.y0 = y0.tolist() if y0.ndim == 1 else y0
        self.shift, self.accumulate = (_shift_floats,) * 2 if y0.ndim == 1 else (_shift, _accumulate)
        self.sigma = game.sigma
        # per agent, the |y| past which a step counts as a blow-up; limit is
        # their minimum, checked against the whole of y once per step
        self.limits = tuple(min(BLOW_UP_LIMIT, payoff_limit(reg)) for reg in regs)
        self.limit = min(self.limits)

    def zeros(self):
        """The positions X at t = 0, in the layout of y0."""
        return [0.0] * len(self.y0) if isinstance(self.y0, list) else np.zeros_like(self.y0)

    def kick(self, X, t):
        """The leapfrog force: the field at the motions reconstructed from X."""
        return self.field(self.choice(self.op.motion(self.y0, X, t)))


# Flat kernels: (flow, t, y, X, x, force, eta) -> (y, X, force).  x is the
# choice map of y when the caller already has it (None otherwise); force is
# the leapfrog's last kick, (time, kick at X), carried over from the previous step.


def _euler(flow, t, y, X, x, force, eta):
    """Explicit Euler, the learning rule itself: X advances with the pre-step x.

    Deliberately first-order: the monotone-energy statements are about this map.
    """
    if x is None:
        x = flow.choice(y)
    return flow.shift(y, eta, flow.field(x)), flow.shift(X, eta, x), None


def _rk4(flow, t, y, X, x, force, eta):
    """Classical RK4 on the joint (X, y) field, which depends on y only.

    Each stage's choice map serves both dX and dy: y = y0 + sum A X holds to rounding.
    """
    # k1 + 2 k2 + 2 k3 + k4 as two running sums, added in that order (the same
    # bits); each stage is released before the next choice map runs
    shift, accumulate = flow.shift, flow.accumulate
    sx = flow.choice(y) if x is None else x
    sy = flow.field(sx)
    kx = flow.choice(shift(y, 0.5 * eta, sy))
    ky = flow.field(kx)
    sx = shift(sx, 2.0, kx)  # a new array: x may be the caller's
    sy = accumulate(sy, 2.0, ky)
    del kx
    ky = shift(y, 0.5 * eta, ky)  # the third stage's point
    kx = flow.choice(ky)
    ky = flow.field(kx)
    sx = accumulate(sx, 2.0, kx)
    sy = accumulate(sy, 2.0, ky)
    del kx
    ky = shift(y, eta, ky)  # the fourth stage's point
    kx = flow.choice(ky)
    sx = accumulate(sx, 1.0, kx)
    sy = accumulate(sy, 1.0, flow.field(kx))
    del kx, ky
    sixth = eta / 6.0
    return shift(y, sixth, sy), shift(X, sixth, sx), None


def _leapfrog(flow, t, y, X, x, force, eta):
    """Kick-drift-kick leapfrog: kicks move y by the force at the positions alone
    (the motions y0 + A X), the drift moves X by the choice map of the kicked y.

    Each is a shear, so a step is volume-preserving, time-symmetric and second-order.
    It needs sigma in {-1, +1}: only then is the kick force a gradient.
    """
    if flow.sigma not in (-1, 1):
        raise ValueError("no Hamiltonian structure certified: game has no sigma tag")
    half = 0.5 * eta
    if force is None or force[0] != t and flow.op.drift is not None:  # t - eta + eta may not be t
        force = (t, flow.kick(X, t))
    y_half = flow.shift(y, half, force[1])
    X = flow.shift(X, eta, flow.choice(y_half))
    force = (t + eta, flow.kick(X, t + eta))
    return flow.shift(y_half, half, force[1]), X, force


KERNELS = {"euler": _euler, "rk4": _rk4, "symplectic_leapfrog": _leapfrog}


@dataclass(frozen=True)
class _Snapshots(Sequence):
    """A trajectory's snapshots as SystemStates, each built when it is asked for."""

    traj: Trajectory

    def __len__(self) -> int:
        return len(self.traj.t)

    def __getitem__(self, k: int) -> SystemState:  # past the end, tr.y[k] raises IndexError
        tr = self.traj
        y, X, x, y0 = (tuple(a[..., s] for s in tr.slices) for a in (tr.y[k], tr.X[k], tr.x[k], tr.y[0]))
        return SystemState(float(tr.t[k]), y, X, x, y0)


@dataclass
class Trajectory:
    """Recorded snapshots as arrays, plus the instrument readings.

    t is (snapshots,); y, X and x are (snapshots, batch..., D), agent i
    owning the coordinates slices[i], and y[0] is the start.  energy,
    fenchel and bregman are aligned with t (NaN where a reading is
    unavailable: no sigma tag, no reference profile, or a boundary strategy
    under an entropy regularizer); fenchel and bregman are None without the
    reference profile that metadata["ref"] records.
    """

    t: np.ndarray
    y: np.ndarray
    X: np.ndarray
    x: np.ndarray
    slices: tuple[slice, ...]
    energy: np.ndarray
    fenchel: np.ndarray | None
    bregman: np.ndarray | None
    metadata: dict = dataclass_field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return self.t

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
        return self.x

    def energy_drift(self) -> tuple[float, float]:
        """(max |H - H(0)|, relative drift) over the recorded snapshots."""
        h = np.asarray(self.energy, dtype=float)
        if h.size == 0 or np.any(np.isnan(h)):
            return float("nan"), float("nan")
        h0 = h[0]
        drift = float(np.max(np.abs(h - h0)))
        return drift, drift / max(1.0, float(np.max(np.abs(h0))))


def _blow_up(y, flow):
    if all(map(flow.limit.__ge__, map(abs, y))) if isinstance(y, list) else np.abs(y).max() <= flow.limit:
        return None  # nan and inf compare False, so they are diagnosed below
    y = np.asarray(y)
    for agent, (s, limit) in enumerate(zip(flow.op.slices, flow.limits), 1):
        peak = float(np.abs(y[..., s]).max())  # the first offending agent names the reason
        if not np.isfinite(peak):
            return "non-finite payoff vector"
        if peak > BLOW_UP_LIMIT:
            return f"|y| exceeded {BLOW_UP_LIMIT:g}"
        if peak > limit:
            return f"agent {agent}: |y| exceeded {limit:g}, past the precision of its euclidean projection"
    return None


def simulate(
    game: NetworkGame,
    regs,
    y0,
    config: IntegratorConfig,
    ref=None,
    energy: str = "auto",
) -> Trajectory:
    """Iterate the configured stepper from (t=0, X=0, y=y0).

    Records every stride-th state (plus the first and last) into rows of
    preallocated (snapshots, batch..., D) arrays; deterministic given its
    inputs.  The instruments (H, and F and D against ref) are read once per
    run, after the loop, on those arrays.  A non-finite or exploding state
    truncates the trajectory and leaves a diagnostic in the metadata
    instead of raising: discrete-time divergence is expected behavior, not
    an error.  Exploding means |y| past BLOW_UP_LIMIT, or, for an agent
    with a euclidean simplex block, past the lower
    regularizers.payoff_limit, where its projection can miss the simplex.
    The last finite state then ends the record.  The metadata's timing
    block holds the wall time of the stepping loop and of the readings, and
    the steps taken per second of stepping; its io_s, the time spent
    writing the trajectory, is 0 until a writer fills it in.  The metadata
    also names the Python and numpy versions of the run; its y0 are views of
    the start row y[0] and its ref float copies, which the sidecar writer
    turns into lists.
    """
    from .hamiltonian import select_energy  # here: hamiltonian imports this module

    kernel, eta, stride = KERNELS[config.scheme], config.eta, config.stride
    flow = _Flow(game, regs, y0)
    ref = None if ref is None else [np.array(v, dtype=float) for v in ref]  # small copies
    energy_fn, variant = select_energy(game, regs, energy)

    start = perf_counter()
    t, y, X = 0.0, flow.y0, flow.zeros()
    x, force = flow.choice(y), None
    n_steps, i = config.steps, 0
    rows = n_steps // stride + 1 + (n_steps % stride != 0)
    ts, ys, Xs, xs = (np.empty((rows,) + np.shape(v)) for v in (t, y, X, x))
    ts[0], ys[0], Xs[0], xs[0] = t, y, X, x
    if not isinstance(y, list):
        flow.y0 = y = ys[0]  # the start row serves as y0: no second copy lives through the run
    k = 1  # rows written
    diagnostics = {"truncated": False, "blow_up_step": None, "reason": None}
    for i in range(1, n_steps + 1):
        y_next, X_next, force = kernel(flow, t, y, X, x, force, eta)
        x = None
        reason = _blow_up(y_next, flow)
        if reason is not None:
            diagnostics.update(truncated=True, blow_up_step=i, reason=reason)
            if (i - 1) % stride:  # the last finite state ends the record
                ts[k], ys[k], Xs[k], xs[k] = t, y, X, flow.choice(y)
                k += 1
            break
        t, y, X = i * eta, y_next, X_next  # t: no running sum, whose error would enter b t
        if i % stride == 0 or i == n_steps:
            x = flow.choice(y)  # also the next step's first stage
            ts[k], ys[k], Xs[k], xs[k] = t, y, X, x
            k += 1
    ts, ys, Xs, xs = ts[:k], ys[:k], Xs[:k], xs[:k]
    step_s = perf_counter() - start

    start = perf_counter()
    H = np.full(k, np.nan)
    if energy_fn is not None:  # t as a (snapshots, 1, ...) column against the states
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
            "regularizers": [
                {"kind": getattr(r, "kind", "product"), "domain": getattr(r, "domain", "product"),
                 "dim": r.dim, "scale": getattr(r, "scale", 1.0)}
                for r in regs
            ],
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
