"""Post-processing of trajectories: invariance, divergence, recurrence.

Everything here consumes recorded trajectories and an optional equilibrium
reference and reports measurable consequences of the conservation laws:
constancy of the Fenchel coupling and Bregman distance along interior
continuous-time orbits, monotone energy growth of the explicit Euler
update, returns of the strategy profile near its start, boundary approach,
and phase-space volume of an evolved cloud of initial conditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import IntegratorConfig, Trajectory, simulate
from .games import GameKind, MixedProfile, NetworkGame, classify_game, verify_nash
from .regularizers import bregman_distance, conjugate_value, fenchel_bregman, spans

MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class EquilibriumReference:
    """A verified equilibrium profile used as the anchor of the instruments."""

    profile: MixedProfile
    fully_mixed: bool
    floor: float | None = None  # smallest boundary Bregman distance, if estimated

    def __iter__(self):
        return iter(self.profile)


def make_reference(game: NetworkGame, profile, tolerance: float = 1e-9) -> EquilibriumReference:
    if not isinstance(profile, MixedProfile):
        profile = MixedProfile(tuple(profile))
    violation = verify_nash(game, profile)
    if violation > tolerance:
        raise ValueError(
            f"profile is not an equilibrium within {tolerance:g} (violation {violation:.3e})"
        )
    return EquilibriumReference(profile, profile.is_fully_mixed())


@dataclass
class SeriesReport:
    """Fenchel and Bregman readings along a trajectory, with summaries."""

    fenchel: np.ndarray
    bregman: np.ndarray  # NaN where an entropy strategy touched the boundary
    min_bregman: float
    max_fenchel_deviation: float
    max_bregman_increase: float
    coupling_equals_distance: bool  # F == D held at every interior snapshot
    max_gap: float


def fenchel_bregman_series(traj: Trajectory, game: NetworkGame, regs, ref) -> SeriesReport:
    """F(x*, y(t)) and D(x*, x(t)) at every snapshot.

    On interior snapshots the two agree; the report records the largest gap
    and whether the identity held everywhere it was defined.
    """
    F, D = fenchel_bregman(regs, tuple(ref), traj.stacked("y"), traj.stacked("x"))
    defined = ~np.isnan(D)
    gap = np.abs(F[defined] - D[defined]) if np.any(defined) else np.array([0.0])
    diffs = np.diff(D[defined]) if np.sum(defined) > 1 else np.array([0.0])
    return SeriesReport(
        fenchel=F,
        bregman=D,
        min_bregman=float(np.min(D[defined])) if np.any(defined) else float("nan"),
        max_fenchel_deviation=float(np.max(np.abs(F - F[0]))),
        max_bregman_increase=float(np.max(diffs)) if diffs.size else 0.0,
        coupling_equals_distance=bool(np.all(gap <= 1e-8)),
        max_gap=float(np.max(gap)),
    )


@dataclass(frozen=True)
class FloorEstimate:
    """Sampled lower estimate of the boundary Bregman distance.

    value is the smallest divergence found on (or, for entropy, at distance
    `resolution` from) any face of any agent's simplex; it is an estimate
    at the reported resolution, not a certificate.
    """

    value: float
    resolution: float
    note: str


def _face_points(dim: int, face: int, resolution: float, offset: float):
    """Grid over the face {x_face = offset} of the dim-simplex.

    With a nonzero offset (the entropy shell) every coordinate is kept at
    least offset away from zero, so the divergence stays finite.
    """
    rest = [s for s in range(dim) if s != face]
    budget = 1.0 - offset - (dim - 1) * offset
    if dim == 2:
        weights = [np.array([1.0])]
    elif dim == 3:
        grid = np.linspace(0.0, 1.0, max(2, int(round(1.0 / resolution)) + 1))
        weights = [np.array([w, 1.0 - w]) for w in grid]
    else:
        # a single start; coordinate descent refines it
        weights = [np.full(dim - 1, 1.0 / (dim - 1))]
    for w in weights:
        x = np.empty(dim)
        x[face] = offset
        x[rest] = offset + w * budget
        yield x


def _refine_on_face(reg, x_ref, x0, face, floor, steps=200):
    """Greedy mass-shuffling descent for faces of dimension two and higher."""
    x = np.array(x0)
    rest = [s for s in range(len(x)) if s != face]
    step = 0.25
    best = bregman_distance(reg, x_ref, x)
    for _ in range(steps):
        improved = False
        for a in rest:
            for b in rest:
                if a == b:
                    continue
                move = min(step, x[a] - floor)
                if move <= 0:
                    continue
                trial = np.array(x)
                trial[a] -= move
                trial[b] += move
                val = bregman_distance(reg, x_ref, trial)
                if val < best:
                    best, x, improved = val, trial, True
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    return float(best)


def floor_distance(game: NetworkGame, regs, ref: EquilibriumReference, resolution: float = 1e-3) -> FloorEstimate:
    """Smallest Bregman distance from the reference to the profile boundary.

    The joint boundary is reached by pinning a single agent to a face while
    the others sit at the reference, so the joint floor is the smallest
    per-agent face minimum.  Entropy divergences blow up on the faces
    themselves; those are probed on a shell at the grid resolution, making
    the result a resolution-dependent estimate of the approach behavior.
    """
    if not ref.fully_mixed:
        raise ValueError("boundary floor needs a fully mixed reference (it is 0 otherwise)")
    best = np.inf
    entropy_involved = False
    for reg, x_ref in zip(regs, ref):
        offset = 0.0
        if getattr(reg, "kind", None) == "entropy":
            offset = resolution
            entropy_involved = True
        dim = x_ref.shape[-1]
        for face in range(dim):
            for x in _face_points(dim, face, resolution, offset):
                val = float(bregman_distance(reg, x_ref, x))
                if dim > 3:
                    val = min(val, _refine_on_face(reg, x_ref, x, face, offset))
                best = min(best, val)
    note = "grid estimate on faces"
    if entropy_involved:
        note += "; entropy faces probed on a shell at the stated resolution (true boundary value is infinite)"
    return FloorEstimate(float(best), resolution, note)


@dataclass
class MonotoneReport:
    monotone: bool
    max_decrease: float
    total_increase: float


def monotone_energy_check(traj: Trajectory, game: NetworkGame, regs) -> MonotoneReport:
    """Check that sum_i h_i*(y_i) never decreases along an Euler trajectory.

    That sum is invariant under the continuous zero-sum flow and has convex
    sublevel sets, so the explicit Euler update can only keep or grow it;
    any decrease beyond rounding slack indicates a bug or a game outside
    the zero-sum class.
    """
    if traj.metadata.get("scheme") != "euler":
        raise ValueError("monotone energy statement covers Euler trajectories only")
    if game.sigma != -1 and classify_game(game).kind != GameKind.ZERO_SUM:
        raise ValueError("monotone energy statement covers zero-sum games only")
    y = traj.stacked("y")
    H = sum(conjugate_value(reg, y[..., s]) for reg, s in spans(regs))
    diffs = np.diff(H, axis=0)
    max_decrease = float(max(0.0, -np.min(diffs))) if diffs.size else 0.0
    total = float(np.sum(np.maximum(diffs, 0.0))) if diffs.size else 0.0
    return MonotoneReport(max_decrease <= MONOTONE_SLACK, max_decrease, total)


@dataclass(frozen=True)
class RecurrenceEvent:
    t: float
    distance: float


def recurrence_report(traj: Trajectory, epsilon: float, warmup_fraction: float = 0.01):
    """Local minima of the sup-distance of the profile from its start below epsilon.

    The metric lives on the strategies (a compact set), not the unbounded
    payoff vectors.  A warm-up window at the head of the horizon is skipped
    so the trivial near-start match does not count as a return.
    """
    if epsilon <= 0:
        raise ValueError("recurrence threshold must be positive")
    xs = traj.strategy_matrix()
    t = traj.times
    d = np.max(np.abs(xs - xs[0]), axis=1)
    warmup = warmup_fraction * t[-1]
    events = []
    for k in range(1, len(d) - 1):
        if t[k] < warmup:
            continue
        if d[k] <= d[k - 1] and d[k] <= d[k + 1] and d[k] < epsilon:
            events.append(RecurrenceEvent(float(t[k]), float(d[k])))
    return events


@dataclass
class BoundaryReport:
    min_coordinate: float
    running_min: np.ndarray
    fenchel_nondecreasing: bool | None
    max_fenchel_decrease: float | None


def boundary_approach(traj: Trajectory) -> BoundaryReport:
    """Running minimum strategy coordinate, plus the coupling trend.

    For Euler runs with a registered reference the recorded Fenchel series
    must itself be non-decreasing; the report carries its largest single
    drop so callers can assert that.
    """
    xs = traj.strategy_matrix()
    per_snapshot_min = np.min(xs, axis=1)
    running = np.minimum.accumulate(per_snapshot_min)
    nondec = None
    max_drop = None
    if traj.fenchel is not None and not np.any(np.isnan(traj.fenchel)):
        diffs = np.diff(traj.fenchel)
        max_drop = float(max(0.0, -np.min(diffs))) if diffs.size else 0.0
        nondec = max_drop <= MONOTONE_SLACK
    return BoundaryReport(float(running[-1]), running, nondec, max_drop)


@dataclass
class VolumeReport:
    ratio: float
    initial_volume: float
    final_volume: float
    size: int
    note: str
    timing: dict = field(default_factory=dict)  # the batched run's, as in its metadata


def _cloud_volume(ys) -> float:
    flat = np.concatenate([np.asarray(v, dtype=float) for v in ys], axis=-1)
    cov = np.cov(flat, rowvar=False)
    sign, logdet = np.linalg.slogdet(np.atleast_2d(cov))
    if sign <= 0:
        return 0.0
    return float(np.exp(0.5 * logdet))


def volume_ratio(game: NetworkGame, regs, cloud, config: IntegratorConfig) -> VolumeReport:
    """Evolve a cloud of initial payoff vectors and compare its volume.

    Volume is estimated by the square root of the covariance determinant of
    the flattened payoff coordinates, which is dimension-agnostic and
    stable at sample sizes in the hundreds; it is an estimate, not a
    measure-theoretic certificate.  Conservative integrators should return
    a ratio near one, the Euler update a ratio above it.
    """
    cloud = tuple(np.asarray(v, dtype=float) for v in cloud)
    n = cloud[0].shape[0]
    if n < 10:
        raise ValueError("cloud too small for a covariance volume estimate (need >= 10)")
    before = _cloud_volume(cloud)
    # only the start and the end are read, so only they are recorded
    traj = simulate(game, regs, cloud, replace(config, stride=max(1, config.steps)), energy="none")
    after = _cloud_volume(traj.states[-1].y)
    ratio = after / before if before > 0 else float("nan")
    note = f"covariance-determinant estimate from {n} samples"
    diag = traj.metadata["diagnostics"]
    if diag["truncated"]:
        note += (
            f"; truncated at step {diag['blow_up_step']} ({diag['reason']}), "
            f"ratio covers t in [0, {traj.states[-1].t:g}] only"
        )
    return VolumeReport(ratio, before, after, n, note, traj.metadata["timing"])


@dataclass
class AnalysisReport:
    """Aggregated trajectory report with stable JSON field names."""

    energy_drift: dict
    fenchel: dict | None = None
    bregman: dict | None = None
    recurrence: dict | None = None
    boundary: dict | None = None
    volume: dict | None = None
    checks: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "energy_drift": self.energy_drift,
            "fenchel": self.fenchel,
            "bregman": self.bregman,
            "recurrence": self.recurrence,
            "boundary": self.boundary,
            "volume": self.volume,
            "checks": self.checks,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, **kwargs)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())


def _monotone_flag(series) -> bool:
    diffs = np.diff(series)
    return bool(diffs.size == 0 or np.min(diffs) >= -MONOTONE_SLACK)


def build_report(
    traj: Trajectory,
    game: NetworkGame,
    regs,
    ref: EquilibriumReference | None = None,
    recurrence_epsilon: float | None = None,
    energy_tolerance: float = 1e-6,
    fenchel_tolerance: float = 1e-7,
) -> AnalysisReport:
    """Assemble the full per-trajectory report and tolerance checks.

    Checks are only registered where the corresponding statement applies:
    energy drift for the continuous-time schemes, monotone energy (and
    coupling) for Euler runs on zero-sum games.
    """
    drift_abs, drift_rel = traj.energy_drift()
    report = AnalysisReport(
        energy_drift={
            "max_abs": drift_abs,
            "relative": drift_rel,
            "variant": traj.metadata.get("energy_variant"),
        }
    )
    scheme = traj.metadata.get("scheme")
    zero_sum = game.sigma == -1 or classify_game(game).kind == GameKind.ZERO_SUM

    if scheme in ("rk4", "symplectic_leapfrog") and drift_abs == drift_abs:
        report.checks["energy_invariance"] = {
            "passed": bool(drift_rel <= energy_tolerance),
            "value": drift_rel,
            "tolerance": energy_tolerance,
        }

    if ref is not None:
        series = fenchel_bregman_series(traj, game, regs, ref.profile)
        report.fenchel = {
            "min": float(np.min(series.fenchel)),
            "max": float(np.max(series.fenchel)),
            "max_increase": float(np.max(np.diff(series.fenchel)))
            if series.fenchel.size > 1
            else 0.0,
            "max_deviation": series.max_fenchel_deviation,
            "monotone": _monotone_flag(series.fenchel),
        }
        defined = series.bregman[~np.isnan(series.bregman)]
        report.bregman = {
            "min": float(np.min(defined)) if defined.size else None,
            "max": float(np.max(defined)) if defined.size else None,
            "max_increase": series.max_bregman_increase,
            "monotone": _monotone_flag(defined) if defined.size else None,
            "equals_coupling_on_interior": series.coupling_equals_distance,
            "unavailable_snapshots": int(np.sum(np.isnan(series.bregman))),
        }
        if scheme in ("rk4", "symplectic_leapfrog") and zero_sum and ref.fully_mixed:
            report.checks["fenchel_invariance"] = {
                "passed": bool(series.max_fenchel_deviation <= fenchel_tolerance),
                "value": series.max_fenchel_deviation,
                "tolerance": fenchel_tolerance,
            }
        if scheme == "euler" and zero_sum and ref.fully_mixed:
            diffs = np.diff(series.fenchel)
            drop = float(max(0.0, -np.min(diffs))) if diffs.size else 0.0
            report.checks["fenchel_nondecreasing"] = {
                "passed": drop <= MONOTONE_SLACK,
                "value": drop,
                "tolerance": MONOTONE_SLACK,
            }

    if scheme == "euler" and zero_sum:
        mono = monotone_energy_check(traj, game, regs)
        report.checks["energy_nondecreasing"] = {
            "passed": mono.monotone,
            "value": mono.max_decrease,
            "tolerance": MONOTONE_SLACK,
        }

    if not traj.batched:
        if recurrence_epsilon is not None:
            events = recurrence_report(traj, recurrence_epsilon)
            report.recurrence = {
                "epsilon": recurrence_epsilon,
                "events": [{"t": e.t, "distance": e.distance} for e in events],
            }
        bnd = boundary_approach(traj)
        report.boundary = {
            "min_coordinate": bnd.min_coordinate,
            "fenchel_nondecreasing": bnd.fenchel_nondecreasing,
        }
    return report
