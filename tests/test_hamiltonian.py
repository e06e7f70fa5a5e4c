"""Energy readings: closed forms at t=0, invariance, structure equations."""

import numpy as np
import pytest

from hamgame import (
    IntegratorConfig,
    choice_map,
    conjugate_value,
    default_regularizers,
    reduce_2x2_to_generalized,
    reduce_bipartite_to_two_agent,
    simulate,
    verify_hamiltonian_structure,
)
from hamgame.dynamics import PayoffOperator
from hamgame.hamiltonian import ReadingsPlan, energy_of

from conftest import (
    consistent_point,
    coordination_identity,
    coordination_triangle,
    energy_rows,
    four_cycle_zero_sum,
    interior_start,
    leapfrog_there_and_back,
    matching_pennies,
    mp_start,
    run,
    triangle_zero_sum,
    uniform_profile,
)


def drift(values):
    return float(np.max(np.abs(np.asarray(values) - values[0])))


def energy_at_start(game, regs, variant, y0):
    """The variant read at the start (t = 0, X = 0) of per-agent payoff vectors y0."""
    plan = ReadingsPlan(game, regs, variant)
    y0 = np.concatenate(y0)
    return energy_of(plan, y0, np.zeros_like(y0), y0, 0.0)


class TestClosedFormsAtStart:
    def test_two_agent_initial_value(self, rng):
        game = matching_pennies()
        regs = default_regularizers(game, "entropy")
        y0 = tuple(rng.normal(size=2) for _ in range(2))
        expected = float(
            conjugate_value(regs[0], y0[0]) + conjugate_value(regs[1], y0[1])
        )
        assert float(energy_at_start(game, regs, "two_agent", y0).value) == pytest.approx(
            expected, abs=1e-12
        )

    def test_network_zero_sum_doubles_conjugates(self, rng):
        game = triangle_zero_sum()
        regs = default_regularizers(game, "entropy")
        y0 = tuple(rng.normal(size=k) for k in game.strategy_counts)
        expected = 2.0 * float(
            sum(conjugate_value(r, v) for r, v in zip(regs, y0))
        )
        assert float(energy_at_start(game, regs, "network", y0).value) == pytest.approx(
            expected, abs=1e-12
        )

    def test_rejects_untagged_game(self):
        from hamgame import NetworkGame

        game = NetworkGame(
            (2, 2),
            {(0, 1): np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 0): np.zeros((2, 2))},
        )
        regs = default_regularizers(game, "entropy")
        with pytest.raises(ValueError, match="sigma"):
            energy_at_start(game, regs, "network", (np.zeros(2), np.zeros(2)))


class TestInvariance:
    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_two_agent_zero_sum(self, kind):
        game, regs, y0 = mp_start(kind)
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        h = energy_rows(traj, game, regs, "two_agent")
        assert drift(h) <= 1e-8

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_two_agent_coordination(self, kind):
        game = coordination_identity()
        regs = default_regularizers(game, kind)
        offset = 0.05 if kind == "entropy" else 1e-4
        x0 = (np.array([0.5 + offset, 0.5 - offset]),) * 2
        y0 = interior_start(game, regs, x0)
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        if kind == "euclidean":
            assert float(traj.x[:, traj.slices[0]].min()) > 0.05  # no clamping
        h = energy_rows(traj, game, regs, "two_agent")
        assert drift(h) <= 1e-8

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_bipartite_cycle(self, kind, rng):
        game = four_cycle_zero_sum()
        regs = default_regularizers(game, kind)
        y0 = interior_start(game, regs, uniform_profile(game))
        y0 = tuple(v + 0.1 * rng.normal(size=v.shape) for v in y0)
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        h = energy_rows(traj, game, regs, "bipartite")
        assert drift(h) <= 1e-8

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_network_triangle(self, kind, rng):
        game = triangle_zero_sum()
        regs = default_regularizers(game, kind)
        y0 = interior_start(game, regs, uniform_profile(game))
        y0 = tuple(v + 0.1 * rng.normal(size=v.shape) for v in y0)
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        h = energy_rows(traj, game, regs, "network")
        assert drift(h) <= 1e-8

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_generalized_reduced_matching_pennies(self, kind):
        game, regs, y0 = mp_start(kind)
        red = reduce_2x2_to_generalized(game, regs, y0)
        traj = run(red.game, red.regularizers, red.y0, eta=1e-3, horizon=10.0, stride=100)
        h = energy_rows(traj, red.game, red.regularizers, "generalized")
        assert drift(h) <= 1e-8
        hbar = energy_rows(traj, red.game, red.regularizers, "generalized_bipartite")
        assert drift(hbar) <= 1e-8

    def test_generalized_reduced_coordination(self):
        game = coordination_identity()
        regs = default_regularizers(game, "entropy")
        y0 = (np.array([0.3, 0.1]), np.array([-0.2, 0.1]))
        red = reduce_2x2_to_generalized(game, regs, y0)
        assert red.sigma == 1
        traj = run(red.game, red.regularizers, red.y0, eta=1e-3, horizon=10.0, stride=100)
        hbar = energy_rows(traj, red.game, red.regularizers, "generalized_bipartite")
        assert drift(hbar) <= 1e-8
        # the all-perspectives affine energy collapses for coordination games
        h = energy_rows(traj, red.game, red.regularizers, "generalized")
        np.testing.assert_allclose(h, 0.0, atol=1e-10)

    def test_drift_shrinks_at_fourth_order(self):
        game = triangle_zero_sum()
        regs = default_regularizers(game, "entropy")
        y0 = interior_start(game, regs, uniform_profile(game))
        y0 = tuple(v + np.linspace(-0.3, 0.3, v.shape[-1]) for v in y0)

        def measured(eta):
            traj = run(game, regs, y0, eta=eta, horizon=5.0, stride=20)
            return drift(energy_rows(traj, game, regs, "network"))

        d1, d2 = measured(4e-3), measured(2e-3)
        assert d1 > 1e-13  # above rounding noise, so the ratio is meaningful
        assert d1 / d2 >= 8.0


def affine_star(sigma, seed=42, counts=(2, 3, 2)):
    """Star network with random payoff matrices and drift vectors."""
    from hamgame import GeneralizedGame

    rng = np.random.default_rng(seed)
    payoffs, b = {}, {}
    for j in (1, 2):
        a = rng.normal(size=(counts[0], counts[j]))
        payoffs[(0, j)] = a
        payoffs[(j, 0)] = sigma * a.T
        b[(0, j)] = rng.normal(size=counts[0])
        b[(j, 0)] = rng.normal(size=counts[j])
    game = GeneralizedGame(strategy_counts=counts, payoffs=payoffs, sigma=sigma, b=b)
    y0 = tuple(0.3 * rng.normal(size=k) for k in counts)
    return game, y0


class TestAffineStar:
    """Multi-agent affine games, beyond the two-agent scalar reductions."""

    @pytest.mark.parametrize("sigma", [-1, 1])
    def test_one_sided_energy_invariant(self, sigma):
        game, y0 = affine_star(sigma)
        regs = default_regularizers(game, "entropy")
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        h = energy_rows(traj, game, regs, "generalized_bipartite")
        assert drift(h) <= 1e-10

    def test_network_energy_invariant_zero_sum(self):
        game, y0 = affine_star(-1)
        regs = default_regularizers(game, "entropy")
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        h = energy_rows(traj, game, regs, "generalized")
        assert drift(h) <= 1e-10

    def test_network_energy_collapses_coordination(self):
        game, y0 = affine_star(1)
        regs = default_regularizers(game, "entropy")
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        h = energy_rows(traj, game, regs, "generalized")
        np.testing.assert_allclose(h, 0.0, atol=1e-10)

    def test_leapfrog_reversible_with_drift_force(self):
        game, y0 = affine_star(-1)
        regs = default_regularizers(game, "entropy")
        y, _ = leapfrog_there_and_back(game, regs, y0, 0.05, 10)
        for v, v0 in zip(y, y0):
            np.testing.assert_allclose(v, v0, atol=1e-12)

    def test_structure_residual(self, rng):
        game, _ = affine_star(-1)
        regs = default_regularizers(game, "entropy")
        worst = 0.0
        for _ in range(20):
            z0 = tuple(0.4 * rng.normal(size=k) for k in game.strategy_counts)
            t = float(rng.uniform(0.1, 1.0))
            X = tuple(t * rng.dirichlet(np.ones(k)) for k in game.strategy_counts)
            rep = verify_hamiltonian_structure(game, regs, np.concatenate(z0), np.concatenate(X), t)
            assert rep.variant == "generalized"
            worst = max(worst, rep.max_residual)
        assert worst <= 1e-6


class TestDegeneracies:
    def test_coordination_triangle_network_energy_is_zero(self, rng):
        game = coordination_triangle()
        regs = default_regularizers(game, "entropy")
        y0 = tuple(0.3 * rng.normal(size=k) for k in game.strategy_counts)
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        h = energy_rows(traj, game, regs, "network")
        np.testing.assert_allclose(h, 0.0, atol=1e-10)

    def test_zero_sum_collapse_along_trajectory(self, rng):
        game = triangle_zero_sum()
        regs = default_regularizers(game, "euclidean")
        y0 = interior_start(game, regs, uniform_profile(game))
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        for y, h in zip(traj.y, energy_rows(traj, game, regs, "network")):
            doubled = 2.0 * float(sum(conjugate_value(r, y[s]) for r, s in zip(regs, traj.slices)))
            assert h == pytest.approx(doubled, abs=1e-10)

    def test_bipartite_equals_two_agent_on_two_agents(self, rng):
        game, regs, y0 = mp_start("entropy")
        traj = run(game, regs, y0, eta=1e-2, horizon=2.0, stride=20)
        for a, b in zip(energy_rows(traj, game, regs, "two_agent"), energy_rows(traj, game, regs, "bipartite")):
            assert a == pytest.approx(b, abs=1e-10)

    def test_bipartite_energy_equals_reduced_two_agent(self, rng):
        game = four_cycle_zero_sum()
        red = reduce_bipartite_to_two_agent(game)
        regs = default_regularizers(game, "entropy")
        meta_regs = red.meta_regularizers(regs)
        y0 = tuple(0.2 * rng.normal(size=k) for k in game.strategy_counts)
        traj = run(game, regs, y0, eta=1e-2, horizon=3.0, stride=30)
        meta_traj = run(
            red.game, meta_regs, red.meta_vectors(y0), eta=1e-2, horizon=3.0, stride=30
        )
        pairs = zip(energy_rows(traj, game, regs, "bipartite"), energy_rows(meta_traj, red.game, meta_regs, "two_agent"))
        for a, b in pairs:
            assert a == pytest.approx(b, abs=1e-10)

    def test_generalized_without_affine_terms_matches_network(self, rng):
        from hamgame import GeneralizedGame

        base = triangle_zero_sum()
        game = GeneralizedGame(
            strategy_counts=base.strategy_counts,
            payoffs=dict(base.payoffs),
            sigma=-1,
        )
        regs = default_regularizers(game, "entropy")
        y0 = tuple(0.3 * rng.normal(size=k) for k in game.strategy_counts)
        X = tuple(0.5 * np.abs(rng.normal(size=k)) for k in game.strategy_counts)
        point = consistent_point(game, y0, X, t=0.7)
        a = float(energy_of(ReadingsPlan(game, regs, "generalized"), *point, 0.7).value)
        b = float(energy_of(ReadingsPlan(game, regs, "network"), *point, 0.7).value)
        assert a == pytest.approx(b, abs=1e-12)


def random_point(game, rng, t_max=1.0):
    """(y0, X, t): a random flat start and positions at a random time."""
    y0 = tuple(0.4 * rng.normal(size=k) for k in game.strategy_counts)
    t = float(rng.uniform(0.1, t_max))
    X = tuple(t * rng.dirichlet(np.ones(k)) for k in game.strategy_counts)
    return np.concatenate(y0), np.concatenate(X), t


class TestStructure:
    def test_matching_pennies_euclidean(self, rng):
        game, regs, _ = mp_start("euclidean")
        checked = 0
        while checked < 20:
            y0, X, t = random_point(game, rng)
            op = PayoffOperator(game)
            if min(float(choice_map(r, v).min()) for r, v in zip(regs, op.split(op.motion(y0, X, t)))) < 0.05:
                continue  # stay away from the projection kinks
            report = verify_hamiltonian_structure(game, regs, y0, X, t)
            assert report.max_residual <= 1e-6
            assert report.variant == "network"
            checked += 1

    def test_random_triangle_entropy(self, rng):
        game = triangle_zero_sum(centered=False)
        regs = default_regularizers(game, "entropy")
        for _ in range(20):
            report = verify_hamiltonian_structure(game, regs, *random_point(game, rng))
            assert report.max_residual <= 1e-6

    def test_recorded_rows_plug_in(self, rng):
        game = triangle_zero_sum()
        regs = default_regularizers(game, "entropy")
        y0 = tuple(v + 0.1 * rng.normal(size=v.shape) for v in interior_start(game, regs, uniform_profile(game)))
        traj = run(game, regs, y0, eta=1e-2, horizon=5.0, stride=10)
        for k in (0, len(traj.t) // 2, -1):
            report = verify_hamiltonian_structure(game, regs, traj.y[0], traj.X[k], traj.t[k])
            assert report.variant == "network"
            assert report.max_residual <= 1e-6

    def test_rejects_points_not_of_shape_d(self):
        game, regs, y0 = mp_start("entropy")
        flat = np.concatenate(y0)
        for start, X in ((y0, flat), (flat, np.zeros(3)), (np.stack([flat, flat]), np.zeros((2, 4)))):
            with pytest.raises(ValueError, match=r"shape \(D,\) = \(4,\)"):
                verify_hamiltonian_structure(game, regs, start, X)

    def test_coordination_checks_one_sided_energy(self, rng):
        game = coordination_identity()
        regs = default_regularizers(game, "entropy")
        report = verify_hamiltonian_structure(game, regs, *random_point(game, rng))
        assert report.variant == "bipartite"
        assert report.max_residual <= 1e-6

    def test_non_bipartite_coordination_rejected(self, rng):
        game = coordination_triangle()
        regs = default_regularizers(game, "entropy")
        with pytest.raises(ValueError, match="identically"):
            verify_hamiltonian_structure(game, regs, *random_point(game, rng))

    def test_generalized_reduced_game(self, rng):
        game, regs, y0 = mp_start("entropy")
        red = reduce_2x2_to_generalized(game, regs, y0)
        for _ in range(10):
            z0 = np.concatenate([0.4 * rng.normal(size=1) for _ in range(2)])
            X = np.concatenate([np.abs(rng.normal(size=1)) for _ in range(2)])
            report = verify_hamiltonian_structure(red.game, red.regularizers, z0, X, float(rng.uniform(0, 1)))
            assert report.variant == "generalized"
            assert report.max_residual <= 1e-6

    def test_entropy_boundary_rejected(self):
        game, regs, _ = mp_start("entropy")
        y0 = np.array([60.0, -60.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="boundary"):
            verify_hamiltonian_structure(game, regs, y0, np.zeros(4))

    def test_entropy_boundary_rejected_in_product_blocks(self):
        # the folded meta-agents' ProductRegularizers hold the same entropy blocks
        game = four_cycle_zero_sum()
        red = reduce_bipartite_to_two_agent(game)
        regs = default_regularizers(game, "entropy")
        agent = red.partition[0][-1]
        y0 = [np.zeros(k) for k in game.strategy_counts]
        y0[agent][-1] = -40.0  # x of that strategy ~ 4e-18
        zeros = [np.zeros(k) for k in game.strategy_counts]
        last = game.strategy_counts[agent] - 1
        with pytest.raises(ValueError, match=f"agent {agent} coordinate {last} too close to the boundary"):
            verify_hamiltonian_structure(game, regs, np.concatenate(y0), np.concatenate(zeros))
        meta_regs = red.meta_regularizers(regs)
        meta = (np.concatenate(red.meta_vectors(y0)), np.concatenate(red.meta_vectors(zeros)))
        last = red.slices[0][agent].stop - 1
        with pytest.raises(ValueError, match=f"agent 0 coordinate {last} too close to the boundary"):
            verify_hamiltonian_structure(red.game, meta_regs, *meta)


class TestSelectEnergy:
    def test_zero_sum_uses_network(self):
        game, regs, _ = mp_start()
        assert ReadingsPlan(game, regs).variant == "network"

    def test_bipartite_coordination_uses_one_sided(self):
        game = coordination_identity()
        regs = default_regularizers(game, "entropy")
        assert ReadingsPlan(game, regs).variant == "bipartite"

    def test_triangle_coordination_falls_back_to_network(self):
        game = coordination_triangle()
        regs = default_regularizers(game, "entropy")
        assert ReadingsPlan(game, regs).variant == "network"

    def test_general_game_has_no_energy(self):
        from hamgame import NetworkGame

        game = NetworkGame(
            (2, 2),
            {(0, 1): np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 0): np.zeros((2, 2))},
        )
        plan = ReadingsPlan(game, default_regularizers(game, "entropy"))
        assert plan.variant is None and plan.at_y is None

    def test_simulate_records_selected_variant(self):
        game, regs, y0 = mp_start("entropy")
        traj = simulate(game, regs, y0, IntegratorConfig("rk4", 0.1, 0.5, 1))
        assert traj.metadata["energy_variant"] == "network"
        assert not np.any(np.isnan(traj.energy))


@pytest.mark.parametrize("make, variant, message", [
    (matching_pennies, "bogus", "unknown energy variant 'bogus'"),
    (matching_pennies, "generalized", "generalized energy needs a generalized game"),
    (triangle_zero_sum, "two_agent", "two-agent energy needs exactly two agents"),
    (triangle_zero_sum, "bipartite", "bipartite energy needs a bipartite game"),
])
def test_energy_variant_that_does_not_fit_the_game_is_refused(make, variant, message):
    game = make()
    with pytest.raises(ValueError, match=message):
        ReadingsPlan(game, default_regularizers(game, "entropy"), variant)
