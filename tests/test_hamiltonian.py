"""Energy readings: closed forms at t=0, invariance, structure equations."""

import numpy as np
import pytest

from hamgame import (
    IntegratorConfig,
    bipartite_partition,
    conjugate_value,
    consistent_state,
    default_regularizers,
    energy_bipartite,
    energy_generalized,
    energy_generalized_bipartite,
    energy_network,
    energy_two_agent,
    initial_state,
    reduce_2x2_to_generalized,
    reduce_bipartite_to_two_agent,
    select_energy,
    simulate,
    verify_hamiltonian_structure,
)

from conftest import (
    coordination_identity,
    coordination_triangle,
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


def energy_series(traj, fn):
    return np.array([float(fn(s).value) for s in traj.states])


class TestClosedFormsAtStart:
    def test_two_agent_initial_value(self, rng):
        game = matching_pennies()
        regs = default_regularizers(game, "entropy")
        y0 = tuple(rng.normal(size=2) for _ in range(2))
        state = initial_state(regs, y0)
        expected = float(
            conjugate_value(regs[0], y0[0]) + conjugate_value(regs[1], y0[1])
        )
        assert float(energy_two_agent(state, game, regs).value) == pytest.approx(
            expected, abs=1e-12
        )

    def test_network_zero_sum_doubles_conjugates(self, rng):
        game = triangle_zero_sum()
        regs = default_regularizers(game, "entropy")
        y0 = tuple(rng.normal(size=k) for k in game.strategy_counts)
        state = initial_state(regs, y0)
        expected = 2.0 * float(
            sum(conjugate_value(r, v) for r, v in zip(regs, y0))
        )
        assert float(energy_network(state, game, regs).value) == pytest.approx(
            expected, abs=1e-12
        )

    def test_rejects_untagged_game(self):
        from hamgame import NetworkGame

        game = NetworkGame(
            (2, 2),
            {(0, 1): np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 0): np.zeros((2, 2))},
        )
        regs = default_regularizers(game, "entropy")
        state = initial_state(regs, (np.zeros(2), np.zeros(2)))
        with pytest.raises(ValueError, match="sigma"):
            energy_network(state, game, regs)


class TestInvariance:
    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_two_agent_zero_sum(self, kind):
        game, regs, y0 = mp_start(kind)
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        h = energy_series(traj, lambda s: energy_two_agent(s, game, regs))
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
            assert min(float(s.x[0].min()) for s in traj.states) > 0.05  # no clamping
        h = energy_series(traj, lambda s: energy_two_agent(s, game, regs))
        assert drift(h) <= 1e-8

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_bipartite_cycle(self, kind, rng):
        game = four_cycle_zero_sum()
        partition = bipartite_partition(game)
        regs = default_regularizers(game, kind)
        y0 = interior_start(game, regs, uniform_profile(game))
        y0 = tuple(v + 0.1 * rng.normal(size=v.shape) for v in y0)
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        h = energy_series(traj, lambda s: energy_bipartite(s, game, partition, regs))
        assert drift(h) <= 1e-8

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_network_triangle(self, kind, rng):
        game = triangle_zero_sum()
        regs = default_regularizers(game, kind)
        y0 = interior_start(game, regs, uniform_profile(game))
        y0 = tuple(v + 0.1 * rng.normal(size=v.shape) for v in y0)
        traj = run(game, regs, y0, eta=1e-3, horizon=10.0, stride=100)
        h = energy_series(traj, lambda s: energy_network(s, game, regs))
        assert drift(h) <= 1e-8

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_generalized_reduced_matching_pennies(self, kind):
        game, regs, y0 = mp_start(kind)
        red = reduce_2x2_to_generalized(game, regs, y0)
        traj = run(red.game, red.regularizers, red.y0, eta=1e-3, horizon=10.0, stride=100)
        h = energy_series(traj, lambda s: energy_generalized(s, red.game, red.regularizers))
        assert drift(h) <= 1e-8
        hbar = energy_series(
            traj,
            lambda s: energy_generalized_bipartite(
                s, red.game, ((0,), (1,)), red.regularizers
            ),
        )
        assert drift(hbar) <= 1e-8

    def test_generalized_reduced_coordination(self):
        game = coordination_identity()
        regs = default_regularizers(game, "entropy")
        y0 = (np.array([0.3, 0.1]), np.array([-0.2, 0.1]))
        red = reduce_2x2_to_generalized(game, regs, y0)
        assert red.sigma == 1
        traj = run(red.game, red.regularizers, red.y0, eta=1e-3, horizon=10.0, stride=100)
        hbar = energy_series(
            traj,
            lambda s: energy_generalized_bipartite(
                s, red.game, ((0,), (1,)), red.regularizers
            ),
        )
        assert drift(hbar) <= 1e-8
        # the all-perspectives affine energy collapses for coordination games
        h = energy_series(traj, lambda s: energy_generalized(s, red.game, red.regularizers))
        np.testing.assert_allclose(h, 0.0, atol=1e-10)

    def test_drift_shrinks_at_fourth_order(self):
        game = triangle_zero_sum()
        regs = default_regularizers(game, "entropy")
        y0 = interior_start(game, regs, uniform_profile(game))
        y0 = tuple(v + np.linspace(-0.3, 0.3, v.shape[-1]) for v in y0)

        def measured(eta):
            traj = run(game, regs, y0, eta=eta, horizon=5.0, stride=20)
            return drift(energy_series(traj, lambda s: energy_network(s, game, regs)))

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
        partition = bipartite_partition(game)
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        h = energy_series(
            traj, lambda s: energy_generalized_bipartite(s, game, partition, regs)
        )
        assert drift(h) <= 1e-10

    def test_network_energy_invariant_zero_sum(self):
        game, y0 = affine_star(-1)
        regs = default_regularizers(game, "entropy")
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        h = energy_series(traj, lambda s: energy_generalized(s, game, regs))
        assert drift(h) <= 1e-10

    def test_network_energy_collapses_coordination(self):
        game, y0 = affine_star(1)
        regs = default_regularizers(game, "entropy")
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        h = energy_series(traj, lambda s: energy_generalized(s, game, regs))
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
            state = consistent_state(game, regs, z0, X, t)
            rep = verify_hamiltonian_structure(state, game, regs)
            assert rep.variant == "generalized"
            worst = max(worst, rep.max_residual)
        assert worst <= 1e-6


class TestDegeneracies:
    def test_coordination_triangle_network_energy_is_zero(self, rng):
        game = coordination_triangle()
        regs = default_regularizers(game, "entropy")
        y0 = tuple(0.3 * rng.normal(size=k) for k in game.strategy_counts)
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        h = energy_series(traj, lambda s: energy_network(s, game, regs))
        np.testing.assert_allclose(h, 0.0, atol=1e-10)

    def test_zero_sum_collapse_along_trajectory(self, rng):
        game = triangle_zero_sum()
        regs = default_regularizers(game, "euclidean")
        y0 = interior_start(game, regs, uniform_profile(game))
        traj = run(game, regs, y0, eta=1e-3, horizon=5.0, stride=50)
        for s in traj.states:
            doubled = 2.0 * float(sum(conjugate_value(r, v) for r, v in zip(regs, s.y)))
            h = float(energy_network(s, game, regs).value)
            assert h == pytest.approx(doubled, abs=1e-10)

    def test_invalid_partition_rejected(self, rng):
        game = four_cycle_zero_sum()
        regs = default_regularizers(game, "entropy")
        y0 = tuple(rng.normal(size=k) for k in game.strategy_counts)
        state = initial_state(regs, y0)
        with pytest.raises(ValueError, match="nonzero edge"):
            energy_bipartite(state, game, ((0, 1), (2, 3)), regs)
        with pytest.raises(ValueError, match="cover every agent"):
            energy_bipartite(state, game, ((0, 2), (1,)), regs)

    def test_bipartite_equals_two_agent_on_two_agents(self, rng):
        game, regs, y0 = mp_start("entropy")
        traj = run(game, regs, y0, eta=1e-2, horizon=2.0, stride=20)
        for s in traj.states:
            a = float(energy_two_agent(s, game, regs).value)
            b = float(energy_bipartite(s, game, ((0,), (1,)), regs).value)
            assert a == pytest.approx(b, abs=1e-10)

    def test_bipartite_energy_equals_reduced_two_agent(self, rng):
        game = four_cycle_zero_sum()
        partition = bipartite_partition(game)
        red = reduce_bipartite_to_two_agent(game, partition)
        regs = default_regularizers(game, "entropy")
        meta_regs = red.meta_regularizers(regs)
        y0 = tuple(0.2 * rng.normal(size=k) for k in game.strategy_counts)
        traj = run(game, regs, y0, eta=1e-2, horizon=3.0, stride=30)
        meta_traj = run(
            red.game, meta_regs, red.meta_vectors(y0), eta=1e-2, horizon=3.0, stride=30
        )
        for s, ms in zip(traj.states, meta_traj.states):
            a = float(energy_bipartite(s, game, partition, regs).value)
            b = float(energy_two_agent(ms, red.game, meta_regs).value)
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
        state = consistent_state(game, regs, y0, X, t=0.7)
        a = float(energy_generalized(state, game, regs).value)
        b = float(energy_network(state, game, regs).value)
        assert a == pytest.approx(b, abs=1e-12)


def random_consistent_state(game, regs, rng, t_max=1.0):
    y0 = tuple(0.4 * rng.normal(size=k) for k in game.strategy_counts)
    t = float(rng.uniform(0.1, t_max))
    X = tuple(t * rng.dirichlet(np.ones(k)) for k in game.strategy_counts)
    return consistent_state(game, regs, y0, X, t)


class TestStructure:
    def test_matching_pennies_euclidean(self, rng):
        game, regs, _ = mp_start("euclidean")
        checked = 0
        while checked < 20:
            state = random_consistent_state(game, regs, rng)
            if min(float(v.min()) for v in state.x) < 0.05:
                continue  # stay away from the projection kinks
            report = verify_hamiltonian_structure(state, game, regs)
            assert report.max_residual <= 1e-6
            assert report.variant == "network"
            checked += 1

    def test_random_triangle_entropy(self, rng):
        game = triangle_zero_sum(centered=False)
        regs = default_regularizers(game, "entropy")
        for _ in range(20):
            state = random_consistent_state(game, regs, rng)
            report = verify_hamiltonian_structure(state, game, regs)
            assert report.max_residual <= 1e-6

    def test_coordination_checks_one_sided_energy(self, rng):
        game = coordination_identity()
        regs = default_regularizers(game, "entropy")
        state = random_consistent_state(game, regs, rng)
        report = verify_hamiltonian_structure(state, game, regs)
        assert report.variant == "bipartite"
        assert report.max_residual <= 1e-6

    def test_non_bipartite_coordination_rejected(self, rng):
        game = coordination_triangle()
        regs = default_regularizers(game, "entropy")
        state = random_consistent_state(game, regs, rng)
        with pytest.raises(ValueError, match="identically"):
            verify_hamiltonian_structure(state, game, regs)

    def test_generalized_reduced_game(self, rng):
        game, regs, y0 = mp_start("entropy")
        red = reduce_2x2_to_generalized(game, regs, y0)
        for _ in range(10):
            z0 = tuple(0.4 * rng.normal(size=1) for _ in range(2))
            X = tuple(np.abs(rng.normal(size=1)) for _ in range(2))
            state = consistent_state(red.game, red.regularizers, z0, X, t=float(rng.uniform(0, 1)))
            report = verify_hamiltonian_structure(state, red.game, red.regularizers)
            assert report.variant == "generalized"
            assert report.max_residual <= 1e-6

    def test_entropy_boundary_rejected(self):
        game, regs, _ = mp_start("entropy")
        y0 = (np.array([60.0, -60.0]), np.array([0.0, 0.0]))
        state = initial_state(regs, y0)
        with pytest.raises(ValueError, match="boundary"):
            verify_hamiltonian_structure(state, game, regs)

    def test_entropy_boundary_rejected_in_product_blocks(self):
        # the folded meta-agents' ProductRegularizers hold the same entropy blocks
        game = four_cycle_zero_sum()
        partition = bipartite_partition(game)
        red = reduce_bipartite_to_two_agent(game, partition)
        regs = default_regularizers(game, "entropy")
        agent = partition[0][-1]
        y0 = [np.zeros(k) for k in game.strategy_counts]
        y0[agent][-1] = -40.0  # x of that strategy ~ 4e-18
        zeros = [np.zeros(k) for k in game.strategy_counts]
        last = game.strategy_counts[agent] - 1
        with pytest.raises(ValueError, match=f"agent {agent} coordinate {last} too close to the boundary"):
            verify_hamiltonian_structure(consistent_state(game, regs, y0, zeros), game, regs)
        meta_regs = red.meta_regularizers(regs)
        meta = consistent_state(red.game, meta_regs, red.meta_vectors(y0), red.meta_vectors(zeros))
        last = red.slices[0][agent].stop - 1
        with pytest.raises(ValueError, match=f"agent 0 coordinate {last} too close to the boundary"):
            verify_hamiltonian_structure(meta, red.game, meta_regs)


class TestSelectEnergy:
    def test_zero_sum_uses_network(self):
        game, regs, _ = mp_start()
        _, variant = select_energy(game, regs)
        assert variant == "network"

    def test_bipartite_coordination_uses_one_sided(self):
        game = coordination_identity()
        regs = default_regularizers(game, "entropy")
        _, variant = select_energy(game, regs)
        assert variant == "bipartite"

    def test_triangle_coordination_falls_back_to_network(self):
        game = coordination_triangle()
        regs = default_regularizers(game, "entropy")
        _, variant = select_energy(game, regs)
        assert variant == "network"

    def test_general_game_has_no_energy(self):
        from hamgame import NetworkGame

        game = NetworkGame(
            (2, 2),
            {(0, 1): np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 0): np.zeros((2, 2))},
        )
        fn, variant = select_energy(game, default_regularizers(game, "entropy"))
        assert fn is None and variant is None

    def test_simulate_records_selected_variant(self):
        game, regs, y0 = mp_start("entropy")
        traj = simulate(game, regs, y0, IntegratorConfig("rk4", 0.1, 0.5, 1))
        assert traj.metadata["energy_variant"] == "network"
        assert not np.any(np.isnan(traj.energy))
