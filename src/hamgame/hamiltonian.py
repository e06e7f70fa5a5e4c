"""Energy functions of the learning dynamics and their structure check.

Every variant evaluates one formula on flat (batch..., D) arrays,

    H = sum_{i in K} h_i*(y_i) - sigma sum_{j in P} h_j*(y0_j + (X M')_j + beta_j t) + X . c,

with M the block payoff matrix of dynamics.PayoffOperator, so the argument
of the second sum is the motion reconstructed from the positions.  A
variant is data (VARIANTS): the kinetic agents K and potential agents P
(agents 1 and 2, the two sides of a bipartition, or every agent in both),
and the weights of the affine terms b[i, j] in the drift beta and in the
correction c.  With every agent in both sums the zero-sum energy is
counted twice (H = 2 sum h*) and coordination networks cancel identically,
so the conserved affine correction weighs every b[i, j] by -(1 - sigma);
the one-sided reading needs -1 from K to P and +sigma back.

For affine games the reading that makes Hamilton's equations hold instant
by instant (the canonical one) and the conserved one differ by a multiple
of sum b[i, j] . X_i: the canonical reading carries explicit time
dependence through the b t drift inside the conjugate, so its partial time
derivative, not the flow, accounts for the energy change.  A
ReadingsPlan compiles the conserved reading, which energy_of reads, unless
asked for the canonical one, which the structure check differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .dynamics import PayoffOperator
from .games import GeneralizedGame, NetworkGame, bipartite_partition
from .regularizers import AgentReadings, BlockChoiceMap, _added, _block_sums, _grouped, _leaves, _span, spans

FD_STEP = 1e-6  # relative central-difference step of verify_hamiltonian_structure

# An edge (i, j) of b is classed by whether i and j are kinetic agents.
_ALL, _OUT, _BACK = (True, True), (True, False), (False, True)

# variant: (K and P, generalized games only, weights of b[i, j] in beta, in
# the conserved c, in the canonical c).  Weights are keyed by edge class,
# and (a, s) stands for the weight a + s * sigma; absent classes weigh 0.
VARIANTS = {
    "two_agent": ("pair", False, {}, {}, {}),
    "bipartite": ("partition", False, {}, {}, {}),
    "network": ("all", False, {_ALL: (1, 0)}, {}, {}),
    "generalized": ("all", True, {_ALL: (1, 0)}, {_ALL: (-1, 1)}, {_ALL: (-1, 0)}),
    "generalized_bipartite": (
        "partition", True, {_BACK: (1, 0)}, {_OUT: (-1, 0), _BACK: (0, 1)}, {_OUT: (-1, 0)}
    ),
}


@dataclass(frozen=True)
class EnergyReading:
    variant: str
    value: float | np.ndarray
    kinetic: float | np.ndarray
    potential: float | np.ndarray
    correction: float | np.ndarray = 0.0


class ReadingsPlan:
    """The instrument readings of one run, compiled from (game, regs,
    energy, ref): H of a variant, and F and D against ref.

    energy is a variant name, "auto" (_auto_variant's pick) or "none"; ref
    None reads no F and D.  The variant is data: the kinetic agents K and
    potential agents P (agents 1 and 2, the two sides of a bipartition, or
    every agent in both), the drift beta (None without affine terms) and
    the correction c (None when it is zero).  Conjugates are read by
    regularizers.AgentReadings, a group of leaves per numpy call, for
    every agent: at the motions y once per reading, shared by H's kinetic
    sum (K's, picked by index), F and the Euler check's sum (conjugates);
    at the reconstructed motions z for H's potential sum (P's).  h(ref) is
    computed once, here.  A plan is built per run, as the run's flow is,
    and kept by nothing; energy_of reads its H at any flat arrays.
    """

    def __init__(self, game: NetworkGame, regs, energy: str = "auto", ref=None, canonical=False):
        variant = None if energy == "none" else _auto_variant(game) if energy == "auto" else energy
        self.variant, self.ref = variant, None
        if ref is not None:  # small copies, which the trajectory's metadata keeps
            self.ref = [np.array(v, dtype=float) for v in ref]
        self.at_y = None if variant is None and self.ref is None else AgentReadings(regs, self.ref)
        if variant is None:
            return
        if game.sigma not in (-1, 1):
            raise ValueError("energy undefined: game has no sigma tag (general game)")
        if variant not in VARIANTS:
            raise ValueError(f"unknown energy variant {variant!r}")
        sides, affine, drift, conserved, canon = VARIANTS[variant]
        if affine and not isinstance(game, GeneralizedGame):
            raise ValueError("generalized energy needs a generalized game")
        if sides == "pair":
            if game.n != 2:
                raise ValueError("two-agent energy needs exactly two agents")
            kinetic, potential = (0,), (1,)
        elif sides == "all":
            kinetic = potential = tuple(range(game.n))
        elif (partition := bipartite_partition(game)) is not None:
            kinetic, potential = partition
        else:
            raise ValueError(f"{variant} energy needs a bipartite game")

        self.sigma = game.sigma
        self.op = op = PayoffOperator(game)
        # indices of K's and P's conjugates among every agent's: slices, views, where the agents run on
        self.kinetic, self.potential = _span(kinetic), _span(potential)
        in_k = set(kinetic)

        def weighted(table):
            w = {edge: a + s * game.sigma for edge, (a, s) in table.items()}
            return op.weighted_drift(lambda i, j: w.get((i in in_k, j in in_k), 0))

        self.drift = weighted(drift)
        c = weighted(canon if canonical else conserved)
        nonzero = [] if c is None else [s for s in op.slices if np.any(c[s])]
        self.correction = (c, _grouped(nonzero), len(nonzero)) if nonzero else None
        # A X and b t are nan at X = 0, t = 0 when a coefficient is not finite
        coefficients = [a.ravel() for a in game.payoffs.values()] + ([] if op.drift is None else [op.drift])
        self.finite = bool(np.isfinite(np.concatenate(coefficients)).all()) if coefficients else True

    def record(self, traj):
        """Read the trajectory's H, F and D, and the Euler check's sum of
        conjugates, into it, and note the variant, ref and reading time in
        its metadata.  H stays NaN without a variant or with a coefficient
        that is not finite; F, D and the sum stay None when not read.  traj.x
        must be the choice maps of traj.y under the plan's regularizers."""
        start = perf_counter()
        y, x = traj.y, traj.x
        conjugates = None
        if self.at_y is not None:
            conjugates, F, D = self.at_y.read(y, x)
            if self.ref is not None:
                traj.fenchel, traj.bregman = F, D
        if self.variant is not None and self.finite:
            t = np.reshape(traj.t, (-1,) + (1,) * (y.ndim - 1))  # a column against the states
            traj.energy = energy_of(self, y, traj.X, y[0], t, x, conjugates).value
        if conjugates is not None:
            traj.conjugates = _added(conjugates)
        traj.metadata.update(energy_variant=self.variant, ref=self.ref)
        traj.metadata["timing"]["instruments_s"] = perf_counter() - start


def energy_of(plan: ReadingsPlan, y, X, y0, t, x=None, conjugates=None) -> EnergyReading:
    """The energy of a compiled variant at flat (batch..., D) motions y and positions X.

    x, when given, holds the choice maps of y (a record's own), and
    conjugates every agent's conjugate at y, when already read."""
    if conjugates is None:
        conjugates = plan.at_y.conjugates(y, x)
    kin = _added(conjugates[..., plan.kinetic])
    z = y0 + plan.op.linear(X)
    if plan.drift is not None:
        z = z + plan.drift * t
    pot = -plan.sigma * _added(plan.at_y.conjugates(z)[..., plan.potential])
    corr = 0
    if plan.correction is not None:
        c, blocks, count = plan.correction
        corr = _added(_block_sums(blocks, count, X * c))
    return EnergyReading(plan.variant, kin + pot + corr, kin, pot, corr)


def _auto_variant(game: NetworkGame) -> str | None:
    """The default variant of a game, None without a sigma tag.  Zero-sum
    games use the network energy; coordination games fall back to the
    one-sided variant when a bipartition exists, because their network
    energy is identically zero."""
    if game.sigma not in (-1, 1):
        return None
    one_sided = game.sigma == 1 and bipartite_partition(game) is not None
    if isinstance(game, GeneralizedGame):
        return "generalized_bipartite" if one_sided else "generalized"
    return "bipartite" if one_sided else "network"


# ---------------------------------------------------------------------------
# Hamilton-structure verification by central finite differences


@dataclass(frozen=True)
class StructureReport:
    variant: str
    residual_position: float  # max | dH/dy - dX/dt |
    residual_motion: float  # max | dH/dX + dy/dt |

    @property
    def max_residual(self) -> float:
        return max(self.residual_position, self.residual_motion)


def verify_hamiltonian_structure(
    game: NetworkGame, regs, y0, X, t: float = 0.0, variant: str = "auto"
) -> StructureReport:
    """Check dH/dy = dX/dt and -dH/dX = dy/dt by central differences of relative step FD_STEP.

    The check runs at the phase-space point of the flat (D,) start y0 and
    positions X at time t, so a trajectory row plugs in as traj.y[0],
    traj.X[k], traj.t[k].  The motions y = y0 + M X (+ b t) and the
    strategies are rebuilt from them: only at such a consistent point do
    the two sides of the equations refer to the same strategies.  Entropy
    strategies too close to the boundary are rejected, since the conjugate
    gradients then change too fast across the differencing stencil.
    """
    if variant == "auto":
        variant = _auto_variant(game)
        if variant == "network" and game.sigma == 1:
            raise ValueError(
                "coordination network without bipartition has an identically "
                "zero energy; no structure check is defined there"
            )
    plan = ReadingsPlan(game, regs, variant, canonical=True)
    op = plan.op
    y0, X = np.array(y0, dtype=float), np.array(X, dtype=float)  # X a copy, perturbed in place
    if y0.shape != (op.dim,) or X.shape != (op.dim,):
        raise ValueError(
            f"structure check runs on one point: y0 and X must have shape (D,) = ({op.dim},), "
            f"got {y0.shape} and {X.shape}"
        )
    y = op.motion(y0, X, t)  # a new array, perturbed in place
    if not np.all(np.isfinite(y)):
        raise ValueError("structure check undefined: non-finite payoff vector y")
    x = BlockChoiceMap(regs)(y)  # dX/dt
    for i, (reg, xv) in enumerate(zip(regs, op.split(x))):
        for block, s in spans(_leaves([reg])):  # a product regularizer's blocks, side by side
            if block.kind == "entropy" and np.min(xv[s]) < 1e-8:
                coord = s.start + int(np.argmin(xv[s]))
                raise ValueError(
                    f"agent {i} coordinate {coord} too close to the boundary "
                    "for stable differencing"
                )
    dy = op.field(x)

    def slope(v, c):
        """Central difference of the canonical reading along coordinate c of v."""
        h = FD_STEP * max(1.0, abs(v[c]))
        v[c] += h
        up = float(energy_of(plan, y, X, y0, t).value)
        v[c] -= 2.0 * h
        down = float(energy_of(plan, y, X, y0, t).value)
        v[c] += h
        return (up - down) / (2.0 * h)

    res_pos = res_mot = 0.0
    for c in (c for i in np.arange(game.n)[plan.kinetic] for c in range(op.slices[i].start, op.slices[i].stop)):
        res_pos = max(res_pos, abs(slope(y, c) - x[c]))
        res_mot = max(res_mot, abs(slope(X, c) + dy[c]))
    return StructureReport(variant, res_pos, res_mot)
