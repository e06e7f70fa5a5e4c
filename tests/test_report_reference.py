"""Differential tests: one monotone rule, one series summary, exact boundary floors.

The reference below is a frozen copy of the analysis code this replaced:
the report assembly with its per-series min/max/increase/monotone copies
and hand-kept to_dict, the series, monotone-energy and boundary readers
with their own drop rules, and the boundary floor searched on a face grid
refined by a greedy mass-shuffling descent.  Reports must match it byte
for byte.  The one exception is a batched run's largest increase and
monotone flags, which the frozen code took along the last axis (across
starts, np.diff's default) and the one rule takes along axis 0 (time);
those are checked against per-start time series instead.
"""

import json

import numpy as np
import pytest

from hamgame import (
    EquilibriumReference,
    GameKind,
    IntegratorConfig,
    MixedProfile,
    NetworkGame,
    ProductRegularizer,
    Regularizer,
    bregman_distance,
    build_report,
    classify_game,
    conjugate_value,
    default_regularizers,
    floor_distance,
    recurrence_report,
    reduce_2x2_to_generalized,
    sample_payoff_ball,
    simulate,
    solve_2x2_fully_mixed_nash,
)
from hamgame.analysis import largest_drop
from hamgame.regularizers import fenchel_bregman, spans

from conftest import coordination_triangle, interior_start, mp_start, triangle_zero_sum, uniform_profile

SLACK = 1e-10


# ---------------------------------------------------------------------------
# frozen report code


def _ref_series(traj, regs, ref):
    ref, read = tuple(ref), traj.metadata.get("ref") or ()
    if traj.fenchel is not None and len(read) == len(ref) and all(map(np.array_equal, read, ref)):
        F, D = traj.fenchel, traj.bregman
    else:
        F, D = fenchel_bregman(regs, ref, traj.y, traj.x)
    defined = ~np.isnan(D)
    gap = np.abs(F[defined] - D[defined]) if np.any(defined) else np.array([0.0])
    diffs = np.diff(D[defined]) if np.sum(defined) > 1 else np.array([0.0])
    return {
        "fenchel": F,
        "bregman": D,
        "max_fenchel_deviation": float(np.max(np.abs(F - F[0]))),
        "max_bregman_increase": float(np.max(diffs)) if diffs.size else 0.0,
        "coupling_equals_distance": bool(np.all(gap <= 1e-8)),
    }


def _ref_monotone_energy(traj, regs):
    H = sum(conjugate_value(reg, traj.y[..., s]) for reg, s in spans(regs))
    diffs = np.diff(H, axis=0)
    max_decrease = float(max(0.0, -np.min(diffs))) if diffs.size else 0.0
    return max_decrease <= SLACK, max_decrease


def _ref_boundary(traj):
    running = np.minimum.accumulate(np.min(traj.strategy_matrix(), axis=1))
    nondec = None
    if traj.fenchel is not None and not np.any(np.isnan(traj.fenchel)):
        diffs = np.diff(traj.fenchel)
        max_drop = float(max(0.0, -np.min(diffs))) if diffs.size else 0.0
        nondec = max_drop <= SLACK
    return float(running[-1]), nondec


def _ref_monotone_flag(series):
    diffs = np.diff(series)
    return bool(diffs.size == 0 or np.min(diffs) >= -SLACK)


def _ref_report_json(traj, game, regs, ref=None, recurrence_epsilon=None,
                     energy_tolerance=1e-6, fenchel_tolerance=1e-7):
    drift_abs, drift_rel = traj.energy_drift()
    energy_drift = {"max_abs": drift_abs, "relative": drift_rel,
                    "variant": traj.metadata.get("energy_variant")}
    fenchel = bregman = recurrence = boundary = None
    checks = {}
    scheme = traj.metadata.get("scheme")
    zero_sum = game.sigma == -1 or classify_game(game).kind == GameKind.ZERO_SUM
    if scheme in ("rk4", "symplectic_leapfrog") and drift_abs == drift_abs:
        checks["energy_invariance"] = {"passed": bool(drift_rel <= energy_tolerance),
                                       "value": drift_rel, "tolerance": energy_tolerance}
    if ref is not None:
        series = _ref_series(traj, regs, ref.profile)
        F = series["fenchel"]
        fenchel = {
            "min": float(np.min(F)),
            "max": float(np.max(F)),
            "max_increase": float(np.max(np.diff(F))) if F.size > 1 else 0.0,
            "max_deviation": series["max_fenchel_deviation"],
            "monotone": _ref_monotone_flag(F),
        }
        defined = series["bregman"][~np.isnan(series["bregman"])]
        bregman = {
            "min": float(np.min(defined)) if defined.size else None,
            "max": float(np.max(defined)) if defined.size else None,
            "max_increase": series["max_bregman_increase"],
            "monotone": _ref_monotone_flag(defined) if defined.size else None,
            "equals_coupling_on_interior": series["coupling_equals_distance"],
            # rows, not cells: a batched run's unavailable snapshot is a whole NaN row
            "unavailable_snapshots": int(np.sum(np.isnan(series["bregman"]).reshape(len(F), -1).any(axis=1))),
        }
        deviation = series["max_fenchel_deviation"]
        if scheme in ("rk4", "symplectic_leapfrog") and zero_sum and ref.fully_mixed:
            checks["fenchel_invariance"] = {"passed": bool(deviation <= fenchel_tolerance),
                                            "value": deviation, "tolerance": fenchel_tolerance}
        if scheme == "euler" and zero_sum and ref.fully_mixed:
            diffs = np.diff(F)
            drop = float(max(0.0, -np.min(diffs))) if diffs.size else 0.0
            checks["fenchel_nondecreasing"] = {"passed": drop <= SLACK, "value": drop, "tolerance": SLACK}
    if scheme == "euler" and zero_sum:
        monotone, max_decrease = _ref_monotone_energy(traj, regs)
        checks["energy_nondecreasing"] = {"passed": monotone, "value": max_decrease, "tolerance": SLACK}
    if not traj.batched:
        if recurrence_epsilon is not None:
            events = recurrence_report(traj, recurrence_epsilon)
            recurrence = {"epsilon": recurrence_epsilon,
                          "events": [{"t": e.t, "distance": e.distance} for e in events]}
        min_coordinate, nondec = _ref_boundary(traj)
        boundary = {"min_coordinate": min_coordinate, "fenchel_nondecreasing": nondec}
    doc = {"energy_drift": energy_drift, "fenchel": fenchel, "bregman": bregman,
           "recurrence": recurrence, "boundary": boundary, "volume": None, "checks": checks}
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# reports


def _reference(profile):
    profile = MixedProfile(tuple(np.asarray(v, dtype=float) for v in profile))
    return EquilibriumReference(profile, profile.is_fully_mixed())


def _box_reference(profile):
    """Interior points of the unit boxes, which a MixedProfile (simplex) cannot hold."""
    return EquilibriumReference(tuple(np.asarray(v, dtype=float) for v in profile), True)


def _case(name):
    """(game, regs, y0, equilibrium-like reference, another reference)."""
    if name in ("matching_pennies", "matching_pennies_near_boundary"):
        game, regs, y0 = mp_start("entropy")
        if name == "matching_pennies_near_boundary":
            # the softmax underflows to 0 on some snapshots, where D is unavailable
            y0 = (y0[0] + np.array([373.0, -373.0]), y0[1])
        other = _reference(([0.7, 0.3], [0.4, 0.6]))
        return game, regs, y0, _reference(solve_2x2_fully_mixed_nash(game)), other
    if name == "triangle":
        game = triangle_zero_sum()
        regs = (Regularizer("entropy", dim=2), Regularizer("euclidean", dim=3, scale=0.7),
                Regularizer("entropy", dim=2, scale=1.3))
        y0 = interior_start(game, regs, ([0.6, 0.4], [0.2, 0.3, 0.5], [0.45, 0.55]))
        other = _reference(([1.0, 0.0], [0.2, 0.3, 0.5], [0.5, 0.5]))  # on the boundary
        return game, regs, y0, _reference(uniform_profile(game)), other
    if name == "coordination_triangle":
        game = coordination_triangle()
        regs = default_regularizers(game, "entropy")
        y0 = interior_start(game, regs, ([0.6, 0.4], [0.3, 0.7], [0.5, 0.5]))
        other = _reference(([0.3, 0.7], [0.6, 0.4], [0.2, 0.8]))
        return game, regs, y0, _reference(uniform_profile(game)), other
    game, regs, y0 = mp_start("euclidean")
    red = reduce_2x2_to_generalized(game, regs, y0)
    return red.game, red.regularizers, red.y0, _box_reference(([0.5], [0.5])), _box_reference(([0.3], [0.8]))


CASES = ("matching_pennies", "matching_pennies_near_boundary", "triangle", "coordination_triangle",
         "reduced_2x2")
SCHEMES = ("euler", "rk4", "leapfrog")


def _run(game, regs, y0, scheme, batch, read):
    if batch:
        y0 = sample_payoff_ball(y0, 0.05, 5, seed=7)
    eta = 0.1 if scheme == "euler" else 0.02
    return simulate(game, regs, y0, IntegratorConfig(scheme, eta, 4.0, 2), ref=read)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", CASES)
def test_single_run_reports_match_frozen_copy(name, scheme):
    game, regs, y0, ref, other = _case(name)
    for read in (None, ref, other):
        traj = _run(game, regs, y0, scheme, False, None if read is None else read.profile)
        for given in (None, ref, other):  # with a reference the run was read against, or another
            got = build_report(traj, game, regs, ref=given, recurrence_epsilon=0.05)
            assert got.to_json() == _ref_report_json(traj, game, regs, ref=given, recurrence_epsilon=0.05)


def _time_axis_oracle(doc, F, D):
    """Largest increase and monotone flags along time, start by start."""
    dF = np.diff(F, axis=0)
    dD = np.diff(D[~np.isnan(D).any(axis=1)], axis=0)
    assert doc["fenchel"]["max_increase"] == float(np.max(dF))
    assert doc["fenchel"]["monotone"] == bool(np.all(dF >= -SLACK))
    assert doc["bregman"]["max_increase"] == (float(np.max(dD)) if dD.size else 0.0)
    assert doc["bregman"]["monotone"] == bool(np.all(dD >= -SLACK))
    if "fenchel_nondecreasing" in doc["checks"]:
        assert doc["checks"]["fenchel_nondecreasing"]["value"] == float(max(0.0, -np.min(dF)))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", CASES)
def test_batched_run_reports_match_frozen_copy(name, scheme):
    game, regs, y0, ref, other = _case(name)
    for read in (None, ref):
        traj = _run(game, regs, y0, scheme, True, None if read is None else read.profile)
        assert traj.batched
        for given in (None, ref, other):
            got = json.loads(build_report(traj, game, regs, ref=given).to_json())
            want = json.loads(_ref_report_json(traj, game, regs, ref=given))
            if given is not None:
                F, D = fenchel_bregman(regs, given.profile, traj.y, traj.x)
                _time_axis_oracle(got, F, D)
                for part in ("fenchel", "bregman"):
                    for key in ("max_increase", "monotone"):
                        del got[part][key], want[part][key]
                for doc in (got, want):
                    doc["checks"].pop("fenchel_nondecreasing", None)
            assert got == want


def test_batched_unavailable_snapshots_count_rows():
    # 5 starts over 101 snapshots; the softmax underflows on 32 of them for
    # some start, and each such snapshot counts once, not once per start
    game, regs, y0, ref, _ = _case("matching_pennies_near_boundary")
    traj = _run(game, regs, y0, "rk4", True, None)
    assert traj.y.shape[:2] == (101, 5)
    report = build_report(traj, game, regs, ref=ref)
    assert report.bregman["unavailable_snapshots"] == 32


def test_largest_drop():
    assert largest_drop(np.array([1.0])) == 0.0
    assert largest_drop(np.array([1.0, 3.0, 2.5, 4.0])) == 0.5
    assert largest_drop(np.array([[1.0, 2.0], [1.5, 1.0], [1.2, 3.0]])) == 1.0  # along axis 0
    assert np.isnan(largest_drop(np.array([1.0, np.nan, 2.0])))  # NaN fails any slack


# ---------------------------------------------------------------------------
# boundary floors


def _ref_face_points(dim, face, resolution, offset):
    rest = [s for s in range(dim) if s != face]
    budget = 1.0 - offset - (dim - 1) * offset
    if dim == 2:
        weights = [np.array([1.0])]
    elif dim == 3:
        grid = np.linspace(0.0, 1.0, max(2, int(round(1.0 / resolution)) + 1))
        weights = [np.array([w, 1.0 - w]) for w in grid]
    else:
        weights = [np.full(dim - 1, 1.0 / (dim - 1))]
    for w in weights:
        x = np.empty(dim)
        x[face] = offset
        x[rest] = offset + w * budget
        yield x


def _ref_refine_on_face(reg, x_ref, x0, face, floor, steps=200):
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


def _ref_floor(regs, ref, resolution):
    best = np.inf
    for reg, x_ref in zip(regs, ref):
        offset = resolution if reg.kind == "entropy" else 0.0
        dim = x_ref.shape[-1]
        for face in range(dim):
            for x in _ref_face_points(dim, face, resolution, offset):
                val = float(bregman_distance(reg, x_ref, x))
                if dim > 3:
                    val = min(val, _ref_refine_on_face(reg, x_ref, x, face, offset))
                best = min(best, val)
    return best


def _sampled_floor(reg, x_ref, resolution, rng, n=20_000):
    """Smallest divergence over n random points of each face (entropy: each shell)."""
    dim = len(x_ref)
    offset = resolution if reg.kind == "entropy" else 0.0
    best = np.inf
    for face in range(dim):
        x = np.insert((1.0 - offset) * rng.dirichlet(np.ones(dim - 1), size=n), face, offset, axis=1)
        best = min(best, float(np.min(bregman_distance(reg, x_ref, x))))
    return best


def _one_agent(reg, x_ref):
    """A two-agent game whose second agent's floor (scale 1e6) is never the smallest."""
    k = reg.dim
    game = NetworkGame((k, 2), {(0, 1): np.zeros((k, 2)), (1, 0): np.zeros((2, k))}, sigma=-1)
    regs = (reg, Regularizer("euclidean", dim=2, scale=1e6))
    return game, regs, _reference((x_ref, [0.5, 0.5]))


@pytest.mark.parametrize("kind", ["entropy", "euclidean"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_exact_floor_against_frozen_search_and_samples(kind, dim):
    rng = np.random.default_rng(100 * dim + len(kind))
    for _ in range(2):
        reg = Regularizer(kind, dim=dim, scale=float(rng.uniform(0.5, 2.0)))
        x_ref = rng.dirichlet(np.ones(dim))
        game, regs, ref = _one_agent(reg, x_ref)
        exact = floor_distance(game, regs, ref, resolution=1e-3).value
        frozen = _ref_floor(regs, ref, 1e-3)
        # never above a point either search found; never below the old
        # estimate beyond its grid and descent resolution
        assert exact <= frozen + 1e-12
        assert exact <= _sampled_floor(reg, x_ref, 1e-3, rng) + 1e-12
        assert exact >= frozen - 1e-5


def test_floor_rejects_box_and_product_regularizers():
    game, regs, y0 = mp_start("euclidean")
    red = reduce_2x2_to_generalized(game, regs, y0)
    with pytest.raises(ValueError, match="simplex"):
        floor_distance(red.game, red.regularizers, _box_reference(([0.5], [0.5])))
    product = (ProductRegularizer((Regularizer("entropy", dim=2), Regularizer("euclidean", dim=2))),
               Regularizer("euclidean", dim=2))
    with pytest.raises(ValueError, match="simplex"):
        floor_distance(game, product, _reference(([0.25] * 4, [0.5, 0.5])))


def test_floor_skips_agents_without_a_face():
    reg = Regularizer("euclidean", dim=2)
    single = Regularizer("euclidean", dim=1)
    game = NetworkGame((1, 2), {(0, 1): np.zeros((1, 2)), (1, 0): np.zeros((2, 1))}, sigma=-1)
    est = floor_distance(game, (single, reg), _reference(([1.0], [0.5, 0.5])))
    assert est.value == pytest.approx(0.5, abs=1e-12)  # the two-strategy agent's vertex distance
    game = NetworkGame((1, 1), {(0, 1): np.zeros((1, 1)), (1, 0): np.zeros((1, 1))}, sigma=-1)
    with pytest.raises(ValueError, match="two or more strategies"):
        floor_distance(game, (single, single), _reference(([1.0], [1.0])))
