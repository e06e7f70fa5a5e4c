"""Phase-space evolution of regularized-leader dynamics.

The state of the system is, per agent, the cumulative payoff vector y_i
(the motion), the cumulative strategy X_i = integral of x_i (the position),
and the current strategy x_i, which is never integrated: it is recomputed
from y_i through the choice map wherever a stage or a snapshot needs it.
The continuous field is

    dX_i/dt = x_i = grad h_i*(y_i)
    dy_i/dt = sum_{j != i} A[i, j] x_j            (+ b[i, j] terms, affine games)

Three steppers are provided.  The explicit Euler step IS the discrete-time
update of the learning rule and is deliberately left first-order; rk4 is
the high-fidelity reference for the continuous flow; the leapfrog splits
the conserved energy into a y-part and an X-part and alternates exact
shears, which keeps long-run energy error bounded and every step exactly
reversible.

Integration runs on flat arrays: y and X are single (batch..., D) arrays,
D = sum k_i, with agent i owning the coordinates slices[i].  Each run
compiles the game once into the block payoff operator M (M[s_i, s_j] =
A[i, j]) plus, for affine games, the summed drift b, so the field is
x @ M' (+ b) and the motion reconstructed from the positions is
y0 + X @ M' (+ b t).  The choice maps act blockwise, one call per group of
blocks with the same kind and domain (regularizers.BlockChoiceMap); a
product regularizer contributes its blocks.  One loop in simulate serves
every scheme and batched clouds alike, and it evaluates x only where a
stage or a recorded snapshot needs it.  SystemState is the per-snapshot view: per-agent slices
of the flat arrays.  The public steppers are thin wrappers that flatten a
SystemState, take one flat step and split the result again.

Everything broadcasts over leading batch axes of y, so a cloud of initial
conditions evolves as one vectorized trajectory.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field as dataclass_field
from math import isfinite
from time import perf_counter

import numpy as np

from .fileio import game_fingerprint
from .games import GeneralizedGame, NetworkGame
from .regularizers import BlockChoiceMap, choice_map, fenchel_bregman, payoff_limit

SCHEMES = ("euler", "rk4", "symplectic_leapfrog")
SCHEME_ALIASES = {"leapfrog": "symplectic_leapfrog"}

BLOW_UP_LIMIT = 1e12
SCHEMA_VERSION = 2  # of the trajectory metadata and its JSON sidecar


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
    opponents' motions as y0 + A X.  Snapshots recorded by simulate hold
    per-agent views into that snapshot's flat arrays.
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
    y = tuple(reconstructed_motion(game, regs, y0, X, t))
    x = tuple(choice_map(reg, v) for reg, v in zip(regs, y))
    return SystemState(t, y, X, x, y0)


class PayoffOperator:
    """The block payoff matrix M of a game, acting on flat (batch..., D) arrays.

    Row block i is stored over the narrowest column span that holds every
    stored A[i, j].  When that span is a single neighbour j, the product is
    x_j @ A[i, j]' with the game's own matrix, exactly as a per-agent
    field computes it, so two-agent trajectories do not depend on the flat
    layout; one x @ M' over all D columns would sum in a different order.
    The affine terms b[i, j] of a generalized game are kept by edge, so
    that the energy variants can weigh them edge by edge.
    """

    def __init__(self, game: NetworkGame):
        bounds = np.cumsum((0,) + tuple(game.strategy_counts)).tolist()
        self.slices = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        self.dim = bounds[-1]
        rows = []  # (input span, A' on it, output slice) per row block
        for i, k in enumerate(game.strategy_counts):
            cols = [j for j in range(game.n) if (i, j) in game.payoffs]
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
        self.rows = tuple(rows)
        self.b = sorted(game.b.items()) if isinstance(game, GeneralizedGame) else []
        self.drift = self.weighted_drift(lambda i, j: 1.0)

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

        Each row block is multiplied straight into its slice of one output;
        the slice keeps a BLAS-able stride, so the bits are those of a
        separate x_span @ A' per block.
        """
        out = np.empty(x.shape[:-1] + (self.dim,))
        for span, mt, s in self.rows:
            np.matmul(x[..., span], mt, out=out[..., s])
        return out

    def field(self, x):
        """dy/dt at strategies x."""
        out = self.linear(x)
        return out if self.drift is None else out + self.drift

    def motion(self, y0, X, t):
        """y0 + X @ M' (+ b t): the motions reconstructed from positions."""
        z = y0 + self.linear(X)
        return z if self.drift is None else z + self.drift * t


class _Flow:
    """A game, its regularizers and a start y0, compiled for flat stepping."""

    def __init__(self, game: NetworkGame, regs, y0):
        if tuple(r.dim for r in regs) != tuple(game.strategy_counts):
            raise ValueError("regularizer dimensions do not match the game's strategy counts")
        self.y0_parts = tuple(np.asarray(v, dtype=float) for v in y0)
        if len(self.y0_parts) != len(regs) or any(
            v.shape[-1] != reg.dim for reg, v in zip(regs, self.y0_parts)
        ):
            raise ValueError("initial payoff vector does not match the regularizer")
        self.op = PayoffOperator(game)
        self.choice = BlockChoiceMap(regs)
        self.field = self.op.field
        self.y0 = self.op.join(self.y0_parts)
        self.sigma = game.sigma
        # per agent, the |y| past which a step counts as a blow-up; limit is
        # their minimum, checked against the whole of y once per step
        self.limits = tuple(min(BLOW_UP_LIMIT, payoff_limit(reg)) for reg in regs)
        self.limit = min(self.limits)

    def kick(self, X, t):
        """The leapfrog force: the field at the motions reconstructed from X."""
        return self.field(self.choice(self.op.motion(self.y0, X, t)))

    def state(self, t, y, X, x=None) -> SystemState:
        if x is None:
            x = self.choice(y)
        split = self.op.split
        return SystemState(t, split(y), split(X), split(x), self.y0_parts)


# Flat kernels: (flow, t, y, X, x, force, eta) -> (y, X, force).  x is the
# choice map of y when the caller already has it (None otherwise); force is
# the leapfrog kick at (X, t) carried over from the previous step.


def _euler(flow, t, y, X, x, force, eta):
    if x is None:
        x = flow.choice(y)
    return y + eta * flow.field(x), X + eta * x, None


def _rk4(flow, t, y, X, x, force, eta):
    k1x = flow.choice(y) if x is None else x
    k1y = flow.field(k1x)
    k2x = flow.choice(y + 0.5 * eta * k1y)
    k2y = flow.field(k2x)
    k3x = flow.choice(y + 0.5 * eta * k2y)
    k3y = flow.field(k3x)
    k4x = flow.choice(y + eta * k3y)
    k4y = flow.field(k4x)
    sixth = eta / 6.0
    return (
        y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
        X + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
        None,
    )


def _leapfrog(flow, t, y, X, x, force, eta):
    if flow.sigma not in (-1, 1):
        raise ValueError("no Hamiltonian structure certified: game has no sigma tag")
    half = 0.5 * eta
    if force is None:
        force = flow.kick(X, t)
    y_half = y + half * force
    X = X + eta * flow.choice(y_half)
    force = flow.kick(X, t + eta)
    return y_half + half * force, X, force


KERNELS = {"euler": _euler, "rk4": _rk4, "symplectic_leapfrog": _leapfrog}


def vector_field(state: SystemState, game: NetworkGame, regs):
    """(dX/dt, dy/dt) at the given state."""
    op = PayoffOperator(game)
    if not isfinite(op.join(state.y).sum()):
        raise ValueError("vector field undefined: non-finite payoff vector")
    return tuple(state.x), op.split(op.field(op.join(state.x)))


def _step(scheme, state, game, regs, eta, x=None):
    """One flat step from a SystemState; x, if given, replaces choice(y)."""
    flow = _Flow(game, regs, state.y0)
    y, X = flow.op.join(state.y), flow.op.join(state.X)
    if not isfinite(y.sum()):
        raise ValueError("vector field undefined: non-finite payoff vector")
    if x is not None:
        x = flow.op.join(x)
    y, X, _ = KERNELS[scheme](flow, state.t, y, X, x, None, eta)
    return flow.state(state.t + eta, y, X)


def step_euler(state: SystemState, game: NetworkGame, regs, eta: float) -> SystemState:
    """One explicit Euler step; this is the discrete-time learning rule.

    X advances with the pre-step strategies, matching the definition of the
    discrete update.  Do not replace with a higher-order scheme: the
    monotone-energy statements are about exactly this map.
    """
    return _step("euler", state, game, regs, eta, x=state.x)


def step_rk4(state: SystemState, game: NetworkGame, regs, eta: float) -> SystemState:
    """Classical fourth-order Runge-Kutta step on the joint (X, y) field.

    The field depends on y only, so each stage evaluates the choice maps
    once and reuses them for both dX and dy; this keeps the linear relation
    y(t) = y0 + sum A X(t) exact to rounding.
    """
    return _step("rk4", state, game, regs, eta)


def reconstructed_motion(game: NetworkGame, regs, y0, X, t):
    """y0_j + sum_i A[j, i] X_i (+ b[j, i] t), the position-side motions."""
    op = PayoffOperator(game)
    return list(op.split(op.motion(op.join(y0), op.join(X), t)))


def step_symplectic(state: SystemState, game: NetworkGame, regs, eta: float) -> SystemState:
    """Kick-drift-kick leapfrog for the separable conserved energy.

    The kick moves y using the force derived from positions alone (the
    motions reconstructed as y0 + A X), the drift moves X using the choice
    map of the updated y.  Each sub-step is a shear, so the composition is
    volume-preserving, time-symmetric and second-order.  Requires a game
    with sigma in {-1, +1}: only then is the kick force a gradient.
    """
    return _step("symplectic_leapfrog", state, game, regs, eta)


@dataclass
class Trajectory:
    """Recorded snapshots plus per-snapshot instrument readings.

    energy, fenchel and bregman are arrays aligned with states (NaN where a
    reading is unavailable: no sigma tag, no reference profile, or a
    boundary strategy under an entropy regularizer).  fenchel and bregman
    are None without a reference profile.
    """

    states: list[SystemState]
    energy: np.ndarray
    fenchel: np.ndarray | None
    bregman: np.ndarray | None
    metadata: dict = dataclass_field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def batched(self) -> bool:
        return self.states[0].y[0].ndim > 1

    def stacked(self, part: str) -> np.ndarray:
        """One part of the state ("y", "X" or "x") as a (snapshots, batch..., D) array."""
        return np.stack([np.concatenate(getattr(s, part), axis=-1) for s in self.states])

    def strategy_matrix(self) -> np.ndarray:
        """Snapshots-by-coordinates matrix of the concatenated strategies."""
        if self.batched:
            raise ValueError("strategy matrix is only defined for single trajectories")
        return self.stacked("x")

    def energy_drift(self) -> tuple[float, float]:
        """(max |H - H(0)|, relative drift) over the recorded snapshots."""
        h = np.asarray(self.energy, dtype=float)
        if h.size == 0 or np.any(np.isnan(h)):
            return float("nan"), float("nan")
        h0 = h[0]
        drift = float(np.max(np.abs(h - h0)))
        return drift, drift / max(1.0, float(np.max(np.abs(h0))))


def _read_instruments(energy_fn, regs, y0, ref, t, y, X, x):
    """H, F and D of a whole run, read once on its stacked snapshots.

    t, y, X and x are the snapshot sequences; they are stacked into
    (snapshots, batch..., D) arrays only when a reading is asked for.
    Returns the readings and the stacked y, X and x (None if nothing was
    stacked).
    """
    H = np.full(len(t), np.nan)
    if energy_fn is None and ref is None:
        return H, None, None, None
    Y, XX, XS = np.stack(y), np.stack(X), np.stack(x)
    if energy_fn is not None:  # t as a (snapshots, 1, ...) column against the states
        H = energy_fn(Y, XX, y0, np.reshape(t, (-1,) + (1,) * (Y.ndim - 1))).value
    F, D = (None, None) if ref is None else fenchel_bregman(regs, ref, Y, XS)
    return H, F, D, (Y, XX, XS)


def _blow_up(y, flow):
    if float(np.abs(y).max()) <= flow.limit:  # False for nan and inf too
        return None
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

    Records every stride-th state (plus the first and last); deterministic
    given its inputs.  The instruments (H, and F and D against ref) are
    read once per run, after the loop, on the recorded snapshots stacked
    into (snapshots, batch..., D) arrays.  A non-finite or exploding state
    truncates the trajectory and leaves a diagnostic in the metadata
    instead of raising: discrete-time divergence is expected behavior, not
    an error.  Exploding means |y| past BLOW_UP_LIMIT, or, for an agent
    with a euclidean simplex block of small scale, past the lower
    regularizers.payoff_limit, where its projection stops landing on the
    simplex.  The last finite state then ends the record.  The metadata's
    timing block holds the wall time of the stepping loop and of the
    readings, and the steps taken per second of stepping; its io_s, the
    time spent writing the trajectory, is 0 until a writer fills it in.
    The metadata also names the Python and numpy versions of the run.
    """
    from .hamiltonian import select_energy  # here: hamiltonian imports this module

    kernel = KERNELS[config.scheme]
    flow = _Flow(game, regs, y0)
    ref_components = tuple(ref) if ref is not None else None
    energy_fn, variant = select_energy(game, regs, energy)

    start = perf_counter()
    t, y = 0.0, flow.y0
    X = np.zeros_like(y)
    x, force = flow.choice(y), None
    snaps = [(t, y, X, x)]  # the loop's own arrays, recorded without copies
    diagnostics = {"truncated": False, "blow_up_step": None, "reason": None}
    n_steps, i = config.steps, 0
    for i in range(1, n_steps + 1):
        last = t, y, X
        y, X, force = kernel(flow, t, y, X, x, force, config.eta)
        t = i * config.eta  # not a running sum, whose error would enter the b t drift
        x = None
        reason = _blow_up(y, flow)
        if reason is not None:
            diagnostics.update(truncated=True, blow_up_step=i, reason=reason)
            if (i - 1) % config.stride:  # the last finite state ends the record
                snaps.append(last + (flow.choice(last[1]),))
            break
        if i % config.stride == 0 or i == n_steps:
            x = flow.choice(y)  # also the next step's first stage
            snaps.append((t, y, X, x))
    step_s = perf_counter() - start

    start = perf_counter()
    t, y, X, x = zip(*snaps)
    H, F, D, stacks = _read_instruments(energy_fn, regs, flow.y0, ref_components, t, y, X, x)
    if stacks is not None:  # the states become views of the stacks
        y, X, x = stacks
    states = [flow.state(*snap) for snap in zip(t, y, X, x)]
    instruments_s = perf_counter() - start

    has_ref = ref_components is not None
    return Trajectory(
        states=states,
        energy=H,
        fenchel=F,
        bregman=D,
        metadata={
            "schema_version": SCHEMA_VERSION,
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
            "game_hash": game_fingerprint(game),
            "scheme": config.scheme,
            "eta": config.eta,
            "horizon": config.horizon,
            "effective_horizon": config.effective_horizon,
            "stride": config.stride,
            "energy_variant": variant,
            "regularizers": [
                {
                    "kind": getattr(r, "kind", "product"),
                    "domain": getattr(r, "domain", "product"),
                    "dim": r.dim,
                    "scale": getattr(r, "scale", 1.0),
                }
                for r in regs
            ],
            "y0": [np.asarray(v).tolist() for v in y0],
            "ref": [np.asarray(v).tolist() for v in ref_components] if has_ref else None,
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


# ---------------------------------------------------------------------------
# trajectory files: CSV of (t, strategies, instruments) plus a JSON sidecar


def csv_columns(game: NetworkGame) -> list[str]:
    cols = ["t"]
    for i, k in enumerate(game.strategy_counts):
        cols.extend(f"x_{i + 1}_{s + 1}" for s in range(k))
    cols.extend(["H", "F", "D"])
    return cols


def _fmt(v: float) -> str:
    if v != v:  # NaN marks an unavailable reading
        return ""
    return format(float(v), ".17g")


def write_trajectory_csv(traj: Trajectory, game: NetworkGame, path):
    if traj.batched:
        raise ValueError("CSV output is defined for single trajectories only")
    xs = traj.strategy_matrix()
    t = traj.times
    H = np.asarray(traj.energy, dtype=float)
    F = traj.fenchel if traj.fenchel is not None else np.full(len(t), np.nan)
    D = traj.bregman if traj.bregman is not None else np.full(len(t), np.nan)
    with open(path, "w") as handle:
        handle.write(",".join(csv_columns(game)) + "\n")
        for row in range(len(t)):
            cells = [_fmt(t[row])]
            cells.extend(_fmt(v) for v in xs[row])
            cells.extend([_fmt(H[row]), _fmt(F[row]), _fmt(D[row])])
            handle.write(",".join(cells) + "\n")


def write_trajectory_metadata(traj: Trajectory, game_hash: str, path):
    meta = dict(traj.metadata)
    meta["game_hash"] = game_hash
    meta["snapshots"] = len(traj.states)
    with open(path, "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_trajectory_csv(path):
    """Columns of a trajectory file as arrays (empty cells become NaN)."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    data = np.array(
        [[float(cell) if cell else np.nan for cell in row] for row in rows]
    )
    return header, data
