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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dynamics import IntegratorConfig, Trajectory, simulate
from .games import GameKind, MixedProfile, NetworkGame, classify_game, verify_nash
from .regularizers import bregman_distance, conjugate_value, fenchel_bregman, project_simplex
from .regularizers import regularizer_records, spans

MONOTONE_SLACK = 1e-10
WARMUP_FRACTION = 0.01  # of the horizon, skipped by recurrence_report


def largest_drop(series) -> float:
    """Largest single decrease of a series along axis 0; 0.0 for fewer than two rows.

    A series is non-decreasing when this is at most MONOTONE_SLACK.  A NaN
    step gives NaN, which fails that test.
    """
    if len(series) < 2:
        return 0.0
    return float(np.maximum(0.0, -np.min(np.diff(series, axis=0))))


def make_reference(game: NetworkGame, profile) -> MixedProfile:
    """The profile as a MixedProfile, once verify_nash finds it an
    equilibrium within 1e-9.

    Each component must lie on its agent's domain: the simplex, or the unit
    box for a GeneralizedGame's box agents.
    """
    spaces = getattr(game, "spaces", ())
    if not isinstance(profile, MixedProfile) or profile.spaces != spaces:
        profile = MixedProfile(tuple(profile), spaces)
    violation = verify_nash(game, profile)
    if violation > 1e-9:
        raise ValueError(f"profile is not an equilibrium within 1e-09 (violation {violation:.3e})")
    return profile


@dataclass
class SeriesReport:
    """Fenchel and Bregman readings along a trajectory, with summaries."""

    fenchel: np.ndarray
    bregman: np.ndarray  # NaN where an entropy strategy touched the boundary
    min_bregman: float
    max_fenchel_deviation: float
    coupling_equals_distance: bool  # F == D held at every interior snapshot


def fenchel_bregman_series(traj: Trajectory, regs, ref) -> SeriesReport:
    """F(x*, y(t)) and D(x*, x(t)) at every snapshot.

    Taken from the trajectory when its instruments were read against this
    same profile (metadata["ref"]) with these same regularizers
    (metadata["regularizers"]), read here otherwise.  On interior
    snapshots the two agree; the report records whether the identity held
    everywhere it was defined.
    """
    ref, read = tuple(ref), traj.metadata.get("ref") or ()
    same = len(read) == len(ref) and all(map(np.array_equal, read, ref))
    if traj.fenchel is not None and same and traj.metadata.get("regularizers") == regularizer_records(regs):
        F, D = traj.fenchel, traj.bregman
    else:
        F, D = fenchel_bregman(regs, ref, traj.y, traj.x)
    defined = ~np.isnan(D)
    return SeriesReport(
        fenchel=F,
        bregman=D,
        min_bregman=float(np.min(D[defined])) if np.any(defined) else float("nan"),
        max_fenchel_deviation=float(np.max(np.abs(F - F[0]))),
        coupling_equals_distance=bool(np.all(np.abs(F[defined] - D[defined]) <= 1e-8)),
    )


@dataclass(frozen=True)
class FloorEstimate:
    """Smallest Bregman distance from the reference to the boundary.

    value is the exact minimum over the faces of every agent's simplex of
    the divergence from the reference; for entropy agents, whose divergence
    is infinite on the faces, over the shells {x_f = resolution} instead.
    """

    value: float
    resolution: float
    note: str


def floor_distance(regs, ref: MixedProfile, resolution: float = 1e-3) -> FloorEstimate:
    """Smallest Bregman distance from the reference to the profile boundary.

    The joint boundary is reached by pinning a single agent to a face while
    the others sit at the reference, so the joint floor is the smallest
    per-agent face minimum.  Each has a closed form.  On the euclidean face
    {x_f = 0} the nearest point is the rest of the reference projected onto
    its simplex.  Entropy divergences blow up on the faces themselves, so
    they are read on the shell {x_f = resolution}, where the KL minimizer
    keeps the other coordinates in the reference's proportions.
    """
    if not ref.is_fully_mixed():
        raise ValueError("boundary floor needs a fully mixed reference (it is 0 otherwise)")
    values, entropy_involved = [], False
    for reg, x_ref in zip(regs, ref):
        if getattr(reg, "domain", "product") != "simplex":
            raise ValueError("boundary floor is defined for simplex regularizers only")
        if x_ref.shape[-1] < 2:
            continue  # a single strategy has no face
        entropy_involved |= reg.kind == "entropy"
        for face in range(x_ref.shape[-1]):
            rest = np.delete(x_ref, face)
            if reg.kind == "entropy":
                x = np.insert((1.0 - resolution) * rest / (1.0 - x_ref[face]), face, resolution)
            else:
                x = np.insert(project_simplex(rest), face, 0.0)
            values.append(float(bregman_distance(reg, x_ref, x)))
    if not values:
        raise ValueError("boundary floor needs an agent with two or more strategies")
    note = "exact minimum over faces"
    if entropy_involved:
        note += "; entropy faces probed on a shell at the stated resolution (true boundary value is infinite)"
    return FloorEstimate(min(values), resolution, note)


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
    H = sum(conjugate_value(reg, traj.y[..., s]) for reg, s in spans(regs))
    max_decrease = largest_drop(H)
    total = float(np.sum(np.maximum(np.diff(H, axis=0), 0.0)))
    return MonotoneReport(max_decrease <= MONOTONE_SLACK, max_decrease, total)


@dataclass(frozen=True)
class RecurrenceEvent:
    t: float
    distance: float


def recurrence_report(traj: Trajectory, epsilon: float):
    """Local minima of the sup-distance of the profile from its start below epsilon.

    The metric lives on the strategies (a compact set), not the unbounded
    payoff vectors.  The head of the horizon, its first WARMUP_FRACTION, is
    skipped so the trivial near-start match does not count as a return.
    """
    if epsilon <= 0:
        raise ValueError("recurrence threshold must be positive")
    xs = traj.strategy_matrix()
    t = traj.t
    d = np.max(np.abs(xs - xs[0]), axis=1)
    warmup = WARMUP_FRACTION * t[-1]
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


def boundary_approach(traj: Trajectory) -> BoundaryReport:
    """Running minimum strategy coordinate, plus the coupling trend.

    For Euler runs with a registered reference the recorded Fenchel series
    must itself be non-decreasing.
    """
    xs = traj.strategy_matrix()
    per_snapshot_min = np.min(xs, axis=1)
    running = np.minimum.accumulate(per_snapshot_min)
    nondec = None
    if traj.fenchel is not None and not np.any(np.isnan(traj.fenchel)):
        nondec = largest_drop(traj.fenchel) <= MONOTONE_SLACK
    return BoundaryReport(float(running[-1]), running, nondec)


@dataclass
class VolumeReport:
    ratio: float
    initial_volume: float
    final_volume: float
    size: int
    note: str
    timing: dict = field(default_factory=dict)  # the batched run's, as in its metadata


def _cloud_volume(y) -> float:
    cov = np.cov(y, rowvar=False)
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
    a ratio near one, the Euler update a ratio above it.  A cloud with no
    volume (n <= D starts in D coordinates, a singular start) raises first.
    """
    n, dim = len(cloud[0]), sum(np.shape(v)[-1] for v in cloud)
    if n < 10:
        raise ValueError("cloud too small for a covariance volume estimate (need >= 10)")
    if n <= dim:
        raise ValueError(f"a cloud of {n} starts in {dim} coordinates has no covariance volume (need > {dim})")
    before = _cloud_volume(np.concatenate([np.asarray(v, dtype=float) for v in cloud], axis=-1))
    if before == 0.0:  # a start that is not finite reads nan here, and simulate names it
        raise ValueError(f"the cloud's {n} starts have no covariance volume (determinant {before:g})")
    # only the motions at the start and the end are read, so only they are recorded
    traj = simulate(game, regs, cloud, replace(config, stride=max(1, config.steps)), energy="none", motions_only=True)
    after = _cloud_volume(traj.y[-1])
    note = f"covariance-determinant estimate from {n} samples"
    diag = traj.metadata["diagnostics"]
    if diag["truncated"]:
        note += (
            f"; truncated at step {diag['blow_up_step']} ({diag['reason']}), "
            f"ratio covers t in [0, {traj.t[-1]:g}] only"
        )
    return VolumeReport(after / before, before, after, n, note, traj.metadata["timing"])


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
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, **kwargs)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())


def _check(value, tolerance) -> dict:
    return {"passed": bool(value <= tolerance), "value": value, "tolerance": tolerance}


def _summary(values) -> dict:
    """Extremes, largest single increase and monotone flag of a series (axis 0 is time)."""
    if not values.size:
        return {"min": None, "max": None, "max_increase": 0.0, "monotone": None}
    return {
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "max_increase": float(np.max(np.diff(values, axis=0))) if len(values) > 1 else 0.0,
        "monotone": largest_drop(values) <= MONOTONE_SLACK,
    }


def build_report(
    traj: Trajectory,
    game: NetworkGame,
    regs,
    ref: MixedProfile | None = None,
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
        report.checks["energy_invariance"] = _check(drift_rel, energy_tolerance)

    if ref is not None:
        series = fenchel_bregman_series(traj, regs, ref)
        report.fenchel = dict(_summary(series.fenchel), max_deviation=series.max_fenchel_deviation)
        D = series.bregman  # in a batched run, unavailable snapshots are whole NaN rows
        report.bregman = dict(
            _summary(D[~np.isnan(D)].reshape((-1,) + D.shape[1:])),
            equals_coupling_on_interior=series.coupling_equals_distance,
            unavailable_snapshots=int(np.sum(np.isnan(D).reshape(len(D), -1).any(axis=1))),
        )
        interior = zero_sum and ref.is_fully_mixed()
        if scheme in ("rk4", "symplectic_leapfrog") and interior:
            deviation = series.max_fenchel_deviation
            report.checks["fenchel_invariance"] = _check(deviation, fenchel_tolerance)
        if scheme == "euler" and interior:
            drop = largest_drop(series.fenchel)
            report.checks["fenchel_nondecreasing"] = _check(drop, MONOTONE_SLACK)

    if scheme == "euler" and zero_sum:
        mono = monotone_energy_check(traj, game, regs)
        report.checks["energy_nondecreasing"] = _check(mono.max_decrease, MONOTONE_SLACK)

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
