"""Network polymatrix games: representation, classification, transformations.

A network game couples n agents through pairwise payoff matrices A[i, j];
agent i receives x_i' A[i, j] x_j from the interaction with agent j.  The
class of a game is read off the transpose relation between the two matrices
of each edge:

  zero-sum      A[i, j] = -A[j, i]'
  coordination  A[i, j] = +A[j, i]'
  constant-sum  A[j, i] + A[i, j]' is a constant matrix (per edge)

Constant-sum edges can be shifted to exact zero-sum without touching any
agent's best responses.  The sigma tag (-1 zero-sum, +1 coordination) is
stored on the game rather than re-derived, because the energy formulas
branch on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .regularizers import (
    ProductRegularizer,
    Regularizer,
    restrict_to_interval,
)

SYMMETRY_TOL = 1e-12


def _mirrors(a, b) -> bool:
    """Every entry of a within SYMMETRY_TOL of b's or equal to it: mirrored infinities match, nan never."""
    return bool(np.all((np.abs(a - b) <= SYMMETRY_TOL) | (a == b)))


class GameKind(enum.Enum):
    ZERO_SUM = "zero_sum"
    COORDINATION = "coordination"
    CONSTANT_SUM = "constant_sum"
    GENERAL = "general"


@dataclass(frozen=True)
class Classification:
    kind: GameKind
    # constants c with A[j, i] + A[i, j]' = c * ones, keyed by pair (i, j), i < j
    edge_constants: dict[tuple[int, int], float] | None = None


@dataclass(frozen=True)
class NetworkGame:
    """n agents, per-edge payoff matrices, and the game-class tag sigma.

    payoffs maps ordered pairs (i, j) to the matrix A[i, j] of shape
    (k_i, k_j); absent pairs are implicit zero matrices.  sigma is -1 for
    zero-sum, +1 for coordination, None for anything else.
    """

    strategy_counts: tuple[int, ...]
    payoffs: dict[tuple[int, int], np.ndarray]
    sigma: int | None = None

    def __post_init__(self):
        if any(k < 1 for k in self.strategy_counts):
            raise ValueError("strategy counts must be positive")
        mats = {}
        for (i, j), a in self.payoffs.items():
            if i == j:
                raise ValueError(f"self edge ({i}, {i}) is not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) references an unknown agent")
            a = np.asarray(a, dtype=float)
            want = (self.strategy_counts[i], self.strategy_counts[j])
            if a.shape != want:
                raise ValueError(
                    f"edge ({i}, {j}): matrix shape {a.shape} does not match {want}"
                )
            mats[(i, j)] = a
        object.__setattr__(self, "payoffs", mats)
        if self.sigma is not None:
            if self.sigma not in (-1, 1):
                raise ValueError("sigma must be -1, +1, or None")
            for i, j in self.pairs():
                if not _mirrors(self.matrix(i, j), self.sigma * self.matrix(j, i).T):
                    raise ValueError(
                        f"edge ({i}, {j}) violates the sigma={self.sigma} symmetry"
                    )

    @property
    def n(self) -> int:
        return len(self.strategy_counts)

    def matrix(self, i: int, j: int) -> np.ndarray:
        a = self.payoffs.get((i, j))
        if a is None:
            return np.zeros((self.strategy_counts[i], self.strategy_counts[j]))
        return a

    def pairs(self):
        """Unordered pairs with at least one stored matrix, as (i, j), i < j."""
        seen = sorted({(min(i, j), max(i, j)) for i, j in self.payoffs})
        return seen

    def neighbors(self, i: int):
        out = set()
        for a, b in self.payoffs:
            if a == i and np.any(self.payoffs[(a, b)]):
                out.add(b)
            if b == i and np.any(self.payoffs[(a, b)]):
                out.add(a)
        return sorted(out)


@dataclass(frozen=True)
class GeneralizedGame(NetworkGame):
    """Network game with affine payoff terms on box or simplex domains.

    Agent i's payoff from edge (i, j) is
    x_i' A[i, j] x_j + b[i, j] . x_i + d[i, j] . x_j + c[i, j],
    and only the A and b parts enter agent i's own optimization.  Requires
    sigma in {-1, +1}.
    """

    b: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    d: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    c: dict[tuple[int, int], float] = field(default_factory=dict)
    # per-agent domain tag: "simplex" or "box"
    spaces: tuple[str, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        if self.sigma not in (-1, 1):
            raise ValueError("a generalized game needs sigma in {-1, +1}")
        spaces = self.spaces or tuple("simplex" for _ in self.strategy_counts)
        if len(spaces) != self.n or any(s not in ("simplex", "box") for s in spaces):
            raise ValueError("spaces must tag every agent as simplex or box")
        object.__setattr__(self, "spaces", spaces)
        for name, length_of in (("b", 0), ("d", 1)):
            cleaned = {}
            for (i, j), v in getattr(self, name).items():
                if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                    raise ValueError(f"{name}[{i}, {j}] must join two different agents")
                v = np.asarray(v, dtype=float)
                want = self.strategy_counts[(i, j)[length_of]]
                if v.shape != (want,):
                    raise ValueError(f"{name}[{i}, {j}] must have length {want}")
                cleaned[(i, j)] = v
            object.__setattr__(self, name, cleaned)

@dataclass(frozen=True)
class MixedProfile:
    """One strategy per agent, each on its agent's domain.

    By default every domain is a simplex, and each component lies on it
    within 1e-12.  spaces tags agents as "simplex" or "box", as a
    GeneralizedGame does; a box component lies in [0, 1]^k.
    """

    components: tuple[np.ndarray, ...]
    spaces: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(np.asarray(x, dtype=float) for x in self.components))
        for idx, (x, space) in enumerate(zip(self.components, self.domains)):
            if x.ndim != 1:
                raise ValueError(f"component {idx} must be a vector")
            if space == "box":
                if np.any((x < 0.0) | (x > 1.0)):
                    raise ValueError(f"component {idx} is not in the unit box")
            elif abs(float(np.sum(x)) - 1.0) > 1e-12 or np.any(x < 0.0):
                raise ValueError(f"component {idx} is not on the simplex")

    @property
    def domains(self) -> tuple[str, ...]:
        """Each agent's domain: spaces, or "simplex" for every agent when spaces is empty."""
        return self.spaces or ("simplex",) * len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def is_fully_mixed(self) -> bool:
        """Every simplex entry positive and every box entry strictly inside (0, 1)."""
        return all(
            np.all(x > 0.0) and (space != "box" or np.all(x < 1.0))
            for x, space in zip(self.components, self.domains)
        )


def classify_game(game: NetworkGame) -> Classification:
    """Classify by edge symmetry; ties resolve zero-sum > coordination > constant-sum."""
    zero_sum = True
    coordination = True
    constant = True
    constants: dict[tuple[int, int], float] = {}
    for i, j in game.pairs():
        a_ij = game.matrix(i, j)
        a_ji = game.matrix(j, i)
        if not _mirrors(a_ij, -a_ji.T):
            zero_sum = False
        if not _mirrors(a_ij, a_ji.T):
            coordination = False
        m = a_ji + a_ij.T
        c = float(m.flat[0])
        if not _mirrors(m, c):
            constant = False
        else:
            constants[(i, j)] = c
    if zero_sum:
        return Classification(GameKind.ZERO_SUM)
    if coordination:
        return Classification(GameKind.COORDINATION)
    if constant:
        return Classification(GameKind.CONSTANT_SUM, constants)
    return Classification(GameKind.GENERAL)


def normalize_constant_sum(game: NetworkGame) -> NetworkGame:
    """Shift each edge's constant away so the game becomes exactly zero-sum.

    For every pair (i, j) with A[j, i] + A[i, j]' = c * ones, replaces
    A[j, i] by A[j, i] - c.  Subtracting a constant from all of an agent's
    payoffs on an edge changes no best response and none of the induced
    strategy dynamics.
    """
    cls = classify_game(game)
    if cls.kind == GameKind.ZERO_SUM:
        return game if game.sigma == -1 else replace(game, sigma=-1)
    if cls.kind != GameKind.CONSTANT_SUM:
        raise ValueError(
            "game is not constant-sum (nor zero-sum); normalization undefined"
        )
    payoffs = dict(game.payoffs)
    for (i, j), c in cls.edge_constants.items():
        if c != 0.0:
            payoffs[(j, i)] = game.matrix(j, i) - c
    return NetworkGame(game.strategy_counts, payoffs, sigma=-1)


def bipartite_partition(game: NetworkGame):
    """Two-color the interaction graph breadth-first, or return None.

    Edges are pairs with a nonzero matrix.  Isolated agents go to the first
    side, and the scan order makes the result deterministic.
    """
    adjacency = {i: game.neighbors(i) for i in range(game.n)}
    color = [None] * game.n
    for start in range(game.n):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in adjacency[u]:
                if color[v] is None:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    side_one = tuple(i for i in range(game.n) if color[i] == 0)
    side_two = tuple(i for i in range(game.n) if color[i] == 1)
    return side_one, side_two


@dataclass(frozen=True)
class BipartiteReduction:
    """A bipartite network game folded into two meta-agents.

    Each meta-agent's strategy is the concatenation of its side's strategy
    vectors; the meta payoff matrix stacks the cross-edge blocks.  Because
    the meta regularizer is the sum of the per-agent ones, the folded
    dynamics reproduce the original dynamics coordinate for coordinate.
    """

    game: NetworkGame
    partition: tuple[tuple[int, ...], tuple[int, ...]]
    slices: tuple[dict[int, slice], dict[int, slice]]

    def meta_regularizers(self, regs) -> tuple[ProductRegularizer, ProductRegularizer]:
        return tuple(
            ProductRegularizer(tuple(regs[i] for i in side)) for side in self.partition
        )

    def meta_vectors(self, vectors) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate per-agent vectors (e.g. y0) into the two meta vectors."""
        return tuple(
            np.concatenate([np.asarray(vectors[i], dtype=float) for i in side], axis=-1)
            for side in self.partition
        )

    def split(self, side: int, vector) -> dict[int, np.ndarray]:
        """Slice a meta vector back into the original agents' components."""
        vector = np.asarray(vector)
        return {i: vector[..., s] for i, s in self.slices[side].items()}


def check_partition(game: NetworkGame, partition):
    """The two sides of a valid bipartition as tuples; raises for an invalid one.

    Valid means every agent lies on exactly one side and no nonzero payoff
    matrix joins two agents of the same side.
    """
    side_one, side_two = tuple(partition[0]), tuple(partition[1])
    if sorted(side_one + side_two) != list(range(game.n)):
        raise ValueError("partition invalid: must cover every agent exactly once")
    for side in (set(side_one), set(side_two)):
        for (i, j), a in game.payoffs.items():
            if i in side and j in side and np.any(a):
                raise ValueError(f"partition invalid: nonzero edge ({i}, {j}) inside a side")
    return side_one, side_two


def reduce_bipartite_to_two_agent(game: NetworkGame, partition) -> BipartiteReduction:
    """Build the block two-agent game for a valid bipartition."""
    side_one, side_two = check_partition(game, partition)

    def offsets(side):
        out, pos = {}, 0
        for i in side:
            out[i] = slice(pos, pos + game.strategy_counts[i])
            pos += game.strategy_counts[i]
        return out, pos

    slices_one, dim_one = offsets(side_one)
    slices_two, dim_two = offsets(side_two)
    block_12 = np.zeros((dim_one, dim_two))
    block_21 = np.zeros((dim_two, dim_one))
    for i in side_one:
        for j in side_two:
            block_12[slices_one[i], slices_two[j]] = game.matrix(i, j)
            block_21[slices_two[j], slices_one[i]] = game.matrix(j, i)
    meta = NetworkGame(
        (dim_one, dim_two),
        {(0, 1): block_12, (1, 0): block_21},
        sigma=game.sigma,
    )
    return BipartiteReduction(meta, (side_one, side_two), (slices_one, slices_two))


def payoff_fields(game: NetworkGame, profile) -> list[np.ndarray]:
    """Per-agent payoff vectors sum_j A[i, j] x_j at the given profile."""
    from .dynamics import PayoffOperator  # here: dynamics imports this module

    op = PayoffOperator(game)
    return list(op.split(op.linear(op.join(profile))))


def verify_nash(game: NetworkGame, profile: MixedProfile, fully_mixed: bool = False) -> float:
    """Largest unilateral gain from a pure deviation; <= 0 means equilibrium.

    A simplex agent deviates to its best pure strategy.  A box agent (a
    GeneralizedGame's "box" spaces) deviates to its best vertex of
    [0, 1]^k, which gains the sum of the positive field entries minus
    <x, v>.  A generalized game's fields include its affine terms b.  With
    fully_mixed set, also requires every entry strictly inside its domain
    and folds in the spread of each simplex payoff vector (all components
    must agree at a fully mixed equilibrium), or the largest |v| of a box
    agent's (which must vanish at an interior point).
    """
    from .dynamics import PayoffOperator  # here: dynamics imports this module

    spaces = getattr(game, "spaces", ())
    if not isinstance(profile, MixedProfile) or profile.spaces != spaces:
        profile = MixedProfile(tuple(profile), spaces)
    if len(profile.components) != game.n:
        raise ValueError("profile does not cover every agent")
    for i, x in enumerate(profile):
        if x.shape != (game.strategy_counts[i],):
            raise ValueError(f"component {i} has the wrong dimension")
    op = PayoffOperator(game)
    fields = op.split(op.field(op.join(profile)))
    violation = 0.0
    for x, v, space in zip(profile, fields, profile.domains):
        best = np.sum(np.maximum(v, 0.0)) if space == "box" else np.max(v)
        violation = max(violation, float(best - np.dot(x, v)))
    if fully_mixed:
        if not profile.is_fully_mixed():
            raise ValueError("profile is not fully mixed (coordinate on the boundary)")
        for v, space in zip(fields, profile.domains):
            violation = max(violation, float(np.max(np.abs(v)) if space == "box" else np.max(v) - np.min(v)))
    return violation


def solve_2x2_fully_mixed_nash(game: NetworkGame) -> MixedProfile | None:
    """Closed-form interior equilibrium of a 2x2 two-agent game, if any.

    Each agent mixes so the opponent is indifferent.  Returns None when an
    indifference equation is degenerate or the solution is not strictly
    interior.
    """
    if game.n != 2 or game.strategy_counts != (2, 2):
        raise ValueError("closed-form solver only covers two agents with two strategies")

    def indifference(a):
        # opponent weight q on its first strategy making this agent indifferent
        denom = a[0, 0] - a[0, 1] - a[1, 0] + a[1, 1]
        if denom == 0.0:
            return None
        return (a[1, 1] - a[0, 1]) / denom

    q = indifference(game.matrix(0, 1))  # agent 1's mix, from agent 0's matrix
    p = indifference(game.matrix(1, 0))  # agent 0's mix, from agent 1's matrix
    if p is None or q is None:
        return None
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        return None
    return MixedProfile((np.array([p, 1.0 - p]), np.array([q, 1.0 - q])))


@dataclass(frozen=True)
class Reduced2x2:
    """A two-agent 2x2 game rewritten as a generalized game on [0, 1]^2.

    Substituting x2 = 1 - x1 for both agents turns the bilinear payoff into
    a1 * u v + b1 * u + d1 * v + c1 in the scalar coordinates u, v; agent
    two's data is rescaled by |a1| / |a2| so the interaction coefficients
    match up to sigma = sign(a1 * a2).
    """

    game: GeneralizedGame
    regularizers: tuple[Regularizer, Regularizer]
    y0: tuple[np.ndarray, np.ndarray]
    sigma: int
    a1: float
    a2: float
    ratio: float


def _scalar_coefficients(a: np.ndarray) -> tuple[float, float, float, float]:
    # payoff of (u, 1-u)' A (v, 1-v) collected as a*uv + b*u + d*v + c
    return (
        float(a[0, 0] - a[0, 1] - a[1, 0] + a[1, 1]),
        float(a[0, 1] - a[1, 1]),
        float(a[1, 0] - a[1, 1]),
        float(a[1, 1]),
    )


def reduce_2x2_to_generalized(game: NetworkGame, regs, y0) -> Reduced2x2:
    """Rewrite a two-agent 2x2 game as a sigma-symmetric game on [0, 1]^2.

    Fails for the measure-zero set a1 == 0 or a2 == 0, where an agent's
    payoff does not depend on the joint play at all.
    """
    if game.n != 2 or game.strategy_counts != (2, 2):
        raise ValueError("reduction only covers two agents with two strategies each")
    a1, b1, d1, c1 = _scalar_coefficients(game.matrix(0, 1))
    a2, b2, d2, c2 = _scalar_coefficients(game.matrix(1, 0))
    if a1 == 0.0 or a2 == 0.0:
        raise ValueError(
            "trivial game: payoff independent of opponent interaction term"
        )
    ratio = abs(a1) / abs(a2)
    sigma = 1 if a1 * a2 > 0 else -1
    reduced = GeneralizedGame(
        strategy_counts=(1, 1),
        payoffs={(0, 1): np.array([[a1]]), (1, 0): np.array([[ratio * a2]])},
        sigma=sigma,
        b={(0, 1): np.array([b1]), (1, 0): np.array([ratio * b2])},
        d={(0, 1): np.array([d1]), (1, 0): np.array([ratio * d2])},
        c={(0, 1): c1, (1, 0): ratio * c2},
        spaces=("box", "box"),
    )
    new_regs = (
        restrict_to_interval(regs[0]),
        replace(restrict_to_interval(regs[1]), scale=regs[1].scale * ratio),
    )
    y0 = [np.asarray(v, dtype=float) for v in y0]
    new_y0 = (
        y0[0][..., 0:1] - y0[0][..., 1:2],
        ratio * (y0[1][..., 0:1] - y0[1][..., 1:2]),
    )
    return Reduced2x2(reduced, new_regs, new_y0, sigma, a1, a2, ratio)


def shift_payoffs_to_zero_drift(game: NetworkGame, profile: MixedProfile) -> NetworkGame:
    """Cancel the constant payoff drift at an interior equilibrium.

    At a fully mixed equilibrium of a zero-sum game each payoff field is a
    constant vector lambda_i * ones; subtracting the antisymmetric edge
    constants c[i, j] = (lambda_i - lambda_j) / n keeps the game zero-sum,
    leaves the strategy dynamics untouched, and makes every cumulative
    payoff orbit bounded.  Connects all agent pairs, so the interaction
    graph may densify.
    """
    if game.sigma != -1 and classify_game(game).kind != GameKind.ZERO_SUM:
        raise ValueError("drift normalization is defined for zero-sum games")
    violation = verify_nash(game, profile, fully_mixed=True)
    if violation > 1e-9:
        raise ValueError(f"profile is not an interior equilibrium (violation {violation:.2e})")
    fields = payoff_fields(game, profile)
    lam = [float(np.mean(v)) for v in fields]
    if all(abs(v) <= 1e-15 for v in lam):
        return game
    payoffs = dict(game.payoffs)
    n = game.n
    for i in range(n):
        for j in range(n):
            if i != j:
                c = (lam[i] - lam[j]) / n
                if c != 0.0:
                    payoffs[(i, j)] = game.matrix(i, j) - c
    return NetworkGame(game.strategy_counts, payoffs, sigma=-1)


def default_regularizers(game: NetworkGame, kind: str = "entropy"):
    """One regularizer of the given kind per agent, scale 1."""
    if isinstance(game, GeneralizedGame):
        return tuple(
            Regularizer(kind, domain=s, dim=k)
            for s, k in zip(game.spaces, game.strategy_counts)
        )
    return tuple(Regularizer(kind, dim=k) for k in game.strategy_counts)
