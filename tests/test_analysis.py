"""Distance invariance, discrete divergence, recurrence, boundary, volume."""

import numpy as np
import pytest

from hamgame import (
    IntegratorConfig,
    MixedProfile,
    NetworkGame,
    boundary_approach,
    bregman_distance,
    build_report,
    default_regularizers,
    fenchel_bregman_series,
    floor_distance,
    make_reference,
    monotone_energy_check,
    recurrence_report,
    reduce_2x2_to_generalized,
    sample_payoff_ball,
    simulate,
    solve_2x2_fully_mixed_nash,
    volume_ratio,
)
from hamgame import analysis

from conftest import (
    energy_rows,
    interior_start,
    matching_pennies,
    mp_start,
    run,
    triangle_zero_sum,
    uniform_profile,
    zero_sum_from_edges,
)


def mp_reference():
    game = matching_pennies()
    return make_reference(game, solve_2x2_fully_mixed_nash(game))


def uniform_reference(game):
    return make_reference(game, MixedProfile(uniform_profile(game)))


class TestFenchelBregmanSeries:
    def test_euclidean_orbit_invariance(self):
        game, regs, y0 = mp_start("euclidean")
        ref = mp_reference()
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        series = fenchel_bregman_series(traj, regs, ref)
        assert series.max_fenchel_deviation <= 1e-8
        assert series.coupling_equals_distance

    def test_reduced_coordinate_distance_law(self):
        # half the squared offsets of the two first coordinates stays fixed
        game, regs, y0 = mp_start("euclidean")
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        xs = traj.strategy_matrix()
        d = 0.5 * (xs[:, 0] - 0.5) ** 2 + 0.5 * (xs[:, 2] - 0.5) ** 2
        assert float(np.max(np.abs(d - d[0]))) <= 1e-7

    def test_replicator_kl_invariance(self, rng):
        game = triangle_zero_sum()
        regs = default_regularizers(game, "entropy")
        ref = uniform_reference(game)
        y0 = tuple(0.4 * rng.normal(size=k) for k in game.strategy_counts)
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        kl = np.array(
            [
                float(
                    sum(
                        bregman_distance(r, xr, xv)
                        for r, xr, xv in zip(regs, ref, s.x)
                    )
                )
                for s in traj.states
            ]
        )
        assert float(np.max(np.abs(kl - kl[0]))) <= 1e-8

    def test_coupling_tracks_half_network_energy(self, rng):
        game = triangle_zero_sum()
        regs = default_regularizers(game, "entropy")
        ref = uniform_reference(game)
        y0 = tuple(0.4 * rng.normal(size=k) for k in game.strategy_counts)
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        series = fenchel_bregman_series(traj, regs, ref)
        h = energy_rows(traj, game, regs, "network")
        gap = series.fenchel - 0.5 * h
        assert float(np.max(np.abs(gap - gap[0]))) <= 1e-8

    def test_payoff_inner_product_invariant(self, rng):
        game = triangle_zero_sum()
        regs = default_regularizers(game, "entropy")
        ref = uniform_reference(game)
        y0 = tuple(0.4 * rng.normal(size=k) for k in game.strategy_counts)
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        inner = np.array(
            [
                float(sum(yv @ xr for yv, xr in zip(s.y, ref)))
                for s in traj.states
            ]
        )
        assert float(np.max(np.abs(inner - inner[0]))) <= 1e-8

    def test_distance_floor_along_trajectory(self):
        game, regs, y0 = mp_start("euclidean")
        ref = mp_reference()
        floor = floor_distance(regs, ref).value
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        series = fenchel_bregman_series(traj, regs, ref)
        bound = min(floor, float(series.bregman[0]))
        assert series.min_bregman >= bound - 1e-8

    @pytest.mark.parametrize("kind", ["euclidean", "entropy"])
    def test_reduced_game_box_reference(self, kind):
        # the affine box game of a 2x2 reduction has its equilibrium inside [0, 1]^2
        game, regs, y0 = mp_start(kind)
        red = reduce_2x2_to_generalized(game, regs, y0)
        ref = make_reference(red.game, ([0.5], [0.5]))
        assert ref.is_fully_mixed()
        traj = run(red.game, red.regularizers, red.y0, eta=1e-2, horizon=5.0, stride=10)
        series = fenchel_bregman_series(traj, red.regularizers, ref)
        interior = np.all((traj.x > 0.0) & (traj.x < 1.0), axis=-1)
        assert interior.all() and not np.isnan(series.bregman).any()
        np.testing.assert_allclose(series.fenchel, series.bregman, rtol=0.0, atol=1e-12)
        assert series.coupling_equals_distance
        assert series.max_fenchel_deviation <= 1e-8  # rk4 keeps F against the interior equilibrium
        with pytest.raises(ValueError, match="not an equilibrium"):
            make_reference(red.game, ([0.3], [0.8]))
        with pytest.raises(ValueError, match="unit box"):
            make_reference(red.game, ([1.5], [0.5]))
        with pytest.raises(ValueError, match="unit box"):
            make_reference(red.game, ([-0.1], [0.5]))


class TestFloorDistance:
    def test_euclidean_two_by_two(self):
        game, regs, _ = mp_start("euclidean")
        ref = mp_reference()
        # oracle: each 2-simplex face is a vertex; || (1/2,1/2) - vertex ||^2 = 1/2
        vertex_distance = float(
            bregman_distance(regs[0], np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        )
        assert vertex_distance == pytest.approx(0.5, abs=1e-12)
        est = floor_distance(regs, ref)
        assert est.value == pytest.approx(vertex_distance, abs=1e-12)

    def test_entropy_uniform_reports_shell_estimate(self):
        game, regs, _ = mp_start("entropy")
        ref = mp_reference()
        est = floor_distance(regs, ref, resolution=1e-3)
        # oracle: KL((1/2,1/2) || (eps, 1-eps)) at the shell point
        eps = est.resolution
        shell = 0.5 * np.log(0.5 / eps) + 0.5 * np.log(0.5 / (1 - eps))
        assert est.value == pytest.approx(float(shell), abs=1e-9)
        assert "shell" in est.note

    def test_three_strategy_euclidean_face_grid(self):
        game = triangle_zero_sum(counts=(3, 3, 3))
        regs = default_regularizers(game, "euclidean")
        ref = uniform_reference(game)
        est = floor_distance(regs, ref, resolution=1e-3)
        # oracle: minimize ||u - x||^2 over a face of the 3-simplex: the
        # nearest face point to uniform is (1/2, 1/2, 0) at squared
        # distance 2 (1/6)^2 + (1/3)^2 = 1/6
        assert est.value == pytest.approx(1.0 / 6.0, abs=1e-5)

    def test_entropy_three_strategies_stays_finite(self):
        # face grid points must keep every coordinate off zero for entropy
        game = triangle_zero_sum(counts=(3, 3, 3))
        regs = default_regularizers(game, "entropy")
        ref = uniform_reference(game)
        est = floor_distance(regs, ref, resolution=1e-2)
        assert np.isfinite(est.value) and est.value > 0.5

    def test_four_strategy_descent_refines(self, rng):
        # non-uniform reference: the face-uniform start is not optimal
        a = rng.normal(size=(4, 4))
        a = a - a.mean(axis=1, keepdims=True)
        a = a - a.mean(axis=0, keepdims=True)
        from hamgame import NetworkGame

        game = NetworkGame((4, 4), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
        regs = default_regularizers(game, "euclidean")
        x_ref = np.array([0.4, 0.3, 0.2, 0.1])
        ref = MixedProfile((x_ref, x_ref))  # not an equilibrium: the floor needs none
        est = floor_distance(regs, ref, resolution=1e-3)
        # oracle: cheapest face drops the smallest coordinate (0.1) and
        # spreads it evenly: 3 (0.1/3)^2 + 0.1^2 = 0.01/3 + 0.01
        assert est.value == pytest.approx(0.01 / 3 + 0.01, abs=1e-5)

    def test_boundary_reference_rejected(self):
        game, regs, _ = mp_start("euclidean")
        ref = MixedProfile((np.array([1.0, 0.0]), np.array([0.5, 0.5])))
        with pytest.raises(ValueError, match="fully mixed"):
            floor_distance(regs, ref)


class TestMonotoneEnergy:
    @pytest.mark.parametrize("kind", ["euclidean", "entropy"])
    def test_euler_energy_increases(self, kind):
        game, regs, y0 = mp_start(kind)
        traj = run(game, regs, y0, scheme="euler", eta=0.1, horizon=100.0, stride=1)
        report = monotone_energy_check(traj, game, regs)
        assert report.monotone
        assert report.max_decrease <= 1e-10
        assert report.total_increase > 0.01

    def test_fixed_point_constant(self):
        game, regs, y0 = mp_start("euclidean", x1=(0.5, 0.5), x2=(0.5, 0.5))
        traj = run(game, regs, y0, scheme="euler", eta=0.1, horizon=5.0, stride=1)
        report = monotone_energy_check(traj, game, regs)
        assert report.monotone
        assert report.total_increase <= 1e-12

    def test_rejects_continuous_scheme(self):
        game, regs, y0 = mp_start("euclidean")
        traj = run(game, regs, y0, scheme="rk4", eta=0.1, horizon=1.0, stride=1)
        with pytest.raises(ValueError, match="Euler"):
            monotone_energy_check(traj, game, regs)

    def test_rejects_non_zero_sum(self):
        from conftest import coordination_identity

        game = coordination_identity()
        regs = default_regularizers(game, "entropy")
        y0 = interior_start(game, regs, uniform_profile(game))
        traj = run(game, regs, y0, scheme="euler", eta=0.1, horizon=1.0, stride=1)
        with pytest.raises(ValueError, match="zero-sum"):
            monotone_energy_check(traj, game, regs)


class TestRecurrence:
    def test_orbit_returns_at_period(self):
        game, regs, y0 = mp_start("euclidean")
        traj = run(game, regs, y0, eta=1e-3, horizon=4 * np.pi, stride=1)
        events = recurrence_report(traj, epsilon=1e-4)
        assert events, "closed orbit must return"
        first = events[0]
        assert first.t == pytest.approx(2 * np.pi, abs=0.01)
        assert first.distance <= 1e-4

    def test_euler_never_returns(self):
        game, regs, y0 = mp_start("euclidean")
        traj = run(game, regs, y0, scheme="euler", eta=0.1, horizon=4 * np.pi, stride=1)
        assert recurrence_report(traj, epsilon=1e-3) == []

    def test_fixed_point_returns_every_snapshot(self):
        game, regs, y0 = mp_start("euclidean", x1=(0.5, 0.5), x2=(0.5, 0.5))
        traj = run(game, regs, y0, eta=0.1, horizon=10.0, stride=10)
        events = recurrence_report(traj, epsilon=1e-6)
        # every interior snapshot past the warm-up window is a (flat) return
        times = traj.t
        expected = np.sum((times >= 0.1) & (times < times[-1]))
        assert len(events) == int(expected)

    def test_rejects_bad_epsilon(self):
        game, regs, y0 = mp_start("euclidean")
        traj = run(game, regs, y0, eta=0.1, horizon=1.0, stride=1)
        with pytest.raises(ValueError, match="positive"):
            recurrence_report(traj, epsilon=0.0)


class TestBoundaryApproach:
    def test_euler_drifts_to_boundary_rk4_does_not(self):
        game, regs, y0 = mp_start("euclidean")
        ref = mp_reference()
        euler = run(
            game, regs, y0, scheme="euler", eta=0.1, horizon=100.0, stride=1, ref=ref
        )
        report = boundary_approach(euler)
        assert report.min_coordinate < 0.05
        assert report.fenchel_nondecreasing
        rk4 = run(game, regs, y0, scheme="rk4", eta=1e-2, horizon=100.0, stride=10)
        assert boundary_approach(rk4).min_coordinate > 0.2

    def test_fixed_point_stays_centered(self):
        game, regs, y0 = mp_start("euclidean", x1=(0.5, 0.5), x2=(0.5, 0.5))
        traj = run(game, regs, y0, eta=0.1, horizon=5.0, stride=1)
        report = boundary_approach(traj)
        assert report.min_coordinate == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(report.running_min, 0.5, atol=1e-12)


class TestVolume:
    def setup_cloud(self, n=400, radius=0.01, seed=11):
        game, regs, y0 = mp_start("euclidean")
        red = reduce_2x2_to_generalized(game, regs, y0)
        cloud = sample_payoff_ball(red.y0, radius, n, seed)
        return red, cloud

    def test_conservative_schemes_preserve_volume(self):
        red, cloud = self.setup_cloud()
        for scheme in ("rk4", "leapfrog"):
            config = IntegratorConfig(scheme, 1e-2, 2 * np.pi, 100)
            report = volume_ratio(red.game, red.regularizers, cloud, config)
            assert 0.95 <= report.ratio <= 1.05

    def test_euler_expands_volume(self):
        red, cloud = self.setup_cloud()
        config = IntegratorConfig("euler", 0.1, 2 * np.pi, 10)
        report = volume_ratio(red.game, red.regularizers, cloud, config)
        assert report.ratio > 1.5

    def test_zero_horizon_gives_unit_ratio(self):
        red, cloud = self.setup_cloud(n=50)
        config = IntegratorConfig("rk4", 1e-2, 0.0, 1)
        report = volume_ratio(red.game, red.regularizers, cloud, config)
        assert report.ratio == pytest.approx(1.0, abs=1e-12)

    def test_small_cloud_rejected(self):
        red, cloud = self.setup_cloud(n=5)
        config = IntegratorConfig("rk4", 1e-2, 1.0, 1)
        with pytest.raises(ValueError, match="cloud too small"):
            volume_ratio(red.game, red.regularizers, cloud, config)

    @pytest.mark.parametrize("n", [10, 12, 13])
    def test_cloud_of_at_most_dimension_starts_rejected(self, n):
        # the benchmark's 12 coordinates: n <= 12 starts span no 12-volume
        counts = (3, 2, 4, 3)
        rng = np.random.default_rng(1)
        game = zero_sum_from_edges(counts, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], rng, centered=True)
        regs = default_regularizers(game, "entropy")
        cloud = sample_payoff_ball([0.1 * rng.normal(size=k) for k in counts], 0.01, n, 1)
        config = IntegratorConfig("rk4", 0.05, 0.5, 1)
        if n > sum(counts):
            assert np.isfinite(volume_ratio(game, regs, cloud, config).ratio)
            return
        with pytest.raises(ValueError, match=f"a cloud of {n} starts in 12 coordinates has no covariance volume"):
            volume_ratio(game, regs, cloud, config)

    def test_cloud_without_volume_rejected_before_stepping(self, monkeypatch):
        red, cloud = self.setup_cloud(n=50, radius=0.0)
        monkeypatch.setattr(analysis, "simulate", None)  # no run starts
        with pytest.raises(ValueError, match=r"the cloud's 50 starts have no covariance volume \(determinant 0\)"):
            volume_ratio(red.game, red.regularizers, cloud, IntegratorConfig("rk4", 1e-2, 1.0, 1))

    def test_non_finite_start_blamed_on_its_payoffs(self):
        # its covariance is nan, not a missing volume: the choice map names it
        red, cloud = self.setup_cloud(n=50)
        cloud[0][3, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="choice map requires finite payoff vector"):
            volume_ratio(red.game, red.regularizers, cloud, IntegratorConfig("rk4", 1e-2, 1.0, 1))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be nonnegative, got -0.01"):
            sample_payoff_ball((np.zeros(2), np.zeros(2)), -0.01, 20, 0)
        # a zero radius is the centre itself
        assert all(np.array_equal(v, np.zeros((3, 2))) for v in sample_payoff_ball((np.zeros(2),) * 2, 0.0, 3, 0))

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_radius_rejected(self, radius):
        # before any draw: the choice map would otherwise blame the payoffs
        with pytest.raises(ValueError, match=f"radius must be finite, got {radius}"):
            sample_payoff_ball((np.zeros(2), np.zeros(2)), radius, 20, 0)

    def test_truncated_cloud_ends_at_last_finite_state(self):
        # agent 1's payoff grows by 7e10 a step whatever agent 2 plays: |y| > 1e12 at step 15
        # (entropy agents: a euclidean one would stop far earlier, at its payoff_limit)
        a = 7e10 * np.array([[1.0, 1.0], [-1.0, -1.0]])
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
        regs = default_regularizers(game, "entropy")
        y0 = (np.array([3.0, -3.0]), np.array([2.0, 1.0]))
        config = IntegratorConfig("euler", 1.0, 30.0, 10)
        traj = simulate(game, regs, y0, config, energy="none")
        diag = traj.metadata["diagnostics"]
        assert diag["truncated"] and diag["blow_up_step"] == 15
        assert [s.t for s in traj.states] == [0.0, 10.0, 14.0]
        report = volume_ratio(game, regs, sample_payoff_ball(y0, 0.1, 20, 0), config)
        assert "truncated at step 15" in report.note
        assert "t in [0, 14] only" in report.note

    def test_full_coordinates_match_reduced_picture(self):
        # the same expansion shows up in the four-dimensional chart
        game, regs, y0 = mp_start("euclidean")
        cloud = sample_payoff_ball(y0, 0.01, 400, 7)
        config = IntegratorConfig("euler", 0.1, 2 * np.pi, 10)
        report = volume_ratio(game, regs, cloud, config)
        assert report.ratio > 1.5


class TestBuildReport:
    def test_rk4_report_passes_checks(self):
        game, regs, y0 = mp_start("euclidean")
        ref = mp_reference()
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50, ref=ref)
        report = build_report(traj, game, regs, ref=ref, recurrence_epsilon=1e-3)
        assert report.all_passed
        doc = report.to_dict()
        assert set(doc) == {
            "energy_drift",
            "fenchel",
            "bregman",
            "recurrence",
            "boundary",
            "volume",
            "checks",
        }
        assert doc["energy_drift"]["relative"] <= 1e-6
        assert doc["bregman"]["equals_coupling_on_interior"]

    def test_euler_report_has_monotone_checks(self):
        game, regs, y0 = mp_start("entropy")
        ref = mp_reference()
        traj = run(
            game, regs, y0, scheme="euler", eta=0.05, horizon=20.0, stride=1, ref=ref
        )
        report = build_report(traj, game, regs, ref=ref)
        assert "energy_nondecreasing" in report.checks
        assert "fenchel_nondecreasing" in report.checks
        assert report.all_passed

    def test_every_bregman_reading_unavailable(self):
        # the first agent's entropy strategy sits on the boundary all run long
        game, regs, _ = mp_start("entropy")
        y0 = (np.array([800.0, -800.0]), np.zeros(2))
        ref = mp_reference()
        traj = run(game, regs, y0, eta=0.01, horizon=0.05, stride=1, ref=ref)
        assert traj.x[:, 1].max() == 0.0 and np.isnan(traj.bregman).all()
        report = build_report(traj, game, regs, ref=ref).to_dict()
        assert report["bregman"]["min"] is None and report["bregman"]["max"] is None
        assert report["bregman"]["unavailable_snapshots"] == len(traj.t)

    def test_report_without_reference_omits_series(self):
        game, regs, y0 = mp_start("euclidean")
        traj = run(game, regs, y0, eta=0.01, horizon=1.0, stride=10)
        report = build_report(traj, game, regs)
        assert report.fenchel is None and report.bregman is None
        assert report.all_passed
