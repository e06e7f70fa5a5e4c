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
derivative, not the flow, accounts for the energy change.  select_energy
reads the conserved reading; the structure check differentiates the
canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PayoffOperator
from .games import GeneralizedGame, NetworkGame, bipartite_partition
from .regularizers import _leaves, choice_map, conjugate_value, spans

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


class _Spec:
    """A variant compiled for one game: the data of the energy formula.

    kinetic and potential hold (regularizer, slice) per agent of K and P,
    drift is beta (None without affine terms), and correction holds (slice,
    block of c) per agent whose block is nonzero.  Bipartite variants
    split the agents by the game's own bipartition.
    """

    def __init__(self, game: NetworkGame, regs, variant: str, canonical=False):
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

        self.variant = variant
        self.sigma = game.sigma
        self.op = op = PayoffOperator(game)
        self.kinetic = tuple((regs[i], op.slices[i]) for i in kinetic)
        self.potential = tuple((regs[j], op.slices[j]) for j in potential)
        in_k = set(kinetic)

        def weighted(table):
            w = {edge: a + s * game.sigma for edge, (a, s) in table.items()}
            return op.weighted_drift(lambda i, j: w.get((i in in_k, j in in_k), 0))

        self.drift = weighted(drift)
        c = weighted(canon if canonical else conserved)
        self.correction = () if c is None else tuple((s, c[s]) for s in op.slices if np.any(c[s]))


def energy_of(spec: _Spec, y, X, y0, t) -> EnergyReading:
    """The energy of a compiled variant at flat (batch..., D) motions y and positions X."""
    kin = sum(conjugate_value(reg, y[..., s]) for reg, s in spec.kinetic)
    z = y0 + spec.op.linear(X)
    if spec.drift is not None:
        z = z + spec.drift * t
    pot = -spec.sigma * sum(conjugate_value(reg, z[..., s]) for reg, s in spec.potential)
    corr = sum(np.sum(X[..., s] * c, axis=-1) for s, c in spec.correction)
    return EnergyReading(spec.variant, kin + pot + corr, kin, pot, corr)


def _auto_variant(game: NetworkGame) -> str | None:
    """The default variant of a game (see select_energy); None without a sigma tag."""
    if game.sigma not in (-1, 1):
        return None
    one_sided = game.sigma == 1 and bipartite_partition(game) is not None
    if isinstance(game, GeneralizedGame):
        return "generalized_bipartite" if one_sided else "generalized"
    return "bipartite" if one_sided else "network"


def select_energy(game: NetworkGame, regs, mode: str = "auto"):
    """Pick the instrument energy for a trajectory: (reader, variant name).

    The variant is compiled once; reader(y, X, y0, t) reads it at flat
    (batch..., D) arrays.  Zero-sum games use the network energy;
    coordination games fall back to the one-sided variant when a
    bipartition exists, because their network energy is identically zero.
    Games without a sigma tag have no energy, and mode "none" asks for
    none: both give (None, None).
    """
    variant = None if mode == "none" else _auto_variant(game) if mode == "auto" else mode
    if variant is None:
        return None, None
    spec = _Spec(game, regs, variant)
    return (lambda y, X, y0, t: energy_of(spec, y, X, y0, t)), variant


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
    spec = _Spec(game, regs, variant, canonical=True)
    op = spec.op
    y0, X = np.array(y0, dtype=float), np.array(X, dtype=float)  # X a copy, perturbed in place
    if y0.shape != (op.dim,) or X.shape != (op.dim,):
        raise ValueError(
            f"structure check runs on one point: y0 and X must have shape (D,) = ({op.dim},), "
            f"got {y0.shape} and {X.shape}"
        )
    y = op.motion(y0, X, t)  # a new array, perturbed in place
    if not np.all(np.isfinite(y)):
        raise ValueError("structure check undefined: non-finite payoff vector y")
    x = op.join([choice_map(reg, y[s]) for reg, s in zip(regs, op.slices)])  # dX/dt
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
        up = float(energy_of(spec, y, X, y0, t).value)
        v[c] -= 2.0 * h
        down = float(energy_of(spec, y, X, y0, t).value)
        v[c] += h
        return (up - down) / (2.0 * h)

    res_pos = res_mot = 0.0
    for c in (c for _, s in spec.kinetic for c in range(s.start, s.stop)):
        res_pos = max(res_pos, abs(slope(y, c) - x[c]))
        res_mot = max(res_mot, abs(slope(X, c) + dy[c]))
    return StructureReport(variant, res_pos, res_mot)
