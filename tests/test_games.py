"""Game classification, normalization, reductions, and equilibrium checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgame import (
    GameKind,
    MixedProfile,
    NetworkGame,
    bipartite_partition,
    classify_game,
    default_regularizers,
    normalize_constant_sum,
    payoff_fields,
    reduce_2x2_to_generalized,
    reduce_bipartite_to_two_agent,
    shift_payoffs_to_zero_drift,
    solve_2x2_fully_mixed_nash,
    verify_nash,
)

from conftest import (
    MP_MATRIX,
    coordination_identity,
    four_cycle_zero_sum,
    interior_start,
    matching_pennies,
    mp_start,
    pure_equilibria_2x2,
    run,
    scalar_payoff,
    star_zero_sum,
    triangle_zero_sum,
    uniform_profile,
)


def constant_sum_example():
    a12 = np.array([[2.0, 0.0], [0.0, 2.0]])
    a21 = np.array([[0.0, 2.0], [2.0, 0.0]])
    return NetworkGame((2, 2), {(0, 1): a12, (1, 0): a21})


class TestClassify:
    def test_matching_pennies_is_zero_sum(self):
        # the matrix is symmetric and equals minus its own transpose negated
        assert np.array_equal(-MP_MATRIX.T, np.array([[-1, 1], [1, -1]]))
        game = NetworkGame((2, 2), {(0, 1): MP_MATRIX, (1, 0): -MP_MATRIX.T})
        assert classify_game(game).kind == GameKind.ZERO_SUM

    def test_zero_matrices_tie_break_to_zero_sum(self):
        game = NetworkGame((2, 2), {(0, 1): np.zeros((2, 2)), (1, 0): np.zeros((2, 2))})
        assert classify_game(game).kind == GameKind.ZERO_SUM

    def test_constant_sum_with_constant_two(self):
        cls = classify_game(constant_sum_example())
        assert cls.kind == GameKind.CONSTANT_SUM
        assert cls.edge_constants[(0, 1)] == pytest.approx(2.0)

    def test_coordination(self):
        assert classify_game(coordination_identity()).kind == GameKind.COORDINATION

    def test_general(self):
        game = NetworkGame(
            (2, 2),
            {(0, 1): np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 0): np.zeros((2, 2))},
        )
        assert classify_game(game).kind == GameKind.GENERAL

    def test_shape_mismatch_names_edge(self):
        with pytest.raises(ValueError, match=r"edge \(0, 1\)"):
            NetworkGame((2, 3), {(0, 1): np.zeros((2, 2))})

    def test_nan_payoff_matches_no_symmetry(self):
        # nan entries fail every tolerance comparison, so no edge holding one
        # is zero-sum, coordination or constant-sum, whatever sigma it claims
        payoffs = {(0, 1): [[1, 2], [3, np.nan]], (1, 0): [[5, 7], [11, 13]]}
        for sigma in (-1, 1):
            with pytest.raises(ValueError, match=f"sigma={sigma} symmetry"):
                NetworkGame((2, 2), payoffs, sigma=sigma)
        assert classify_game(NetworkGame((2, 2), payoffs)).kind == GameKind.GENERAL
        a = np.array([[1.0, np.nan], [3.0, 4.0]])
        for other in (-a.T, a.T, 2.0 - a.T):
            assert classify_game(NetworkGame((2, 2), {(0, 1): a, (1, 0): other})).kind == GameKind.GENERAL

    def test_mirrored_infinities_keep_their_symmetry(self):
        a = np.array([[1.0, np.inf], [-np.inf, 4.0]])
        with np.errstate(invalid="ignore"):
            zero_sum = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
            coordination = NetworkGame((2, 2), {(0, 1): a, (1, 0): a.T}, sigma=1)
            assert classify_game(zero_sum).kind == GameKind.ZERO_SUM
            assert classify_game(coordination).kind == GameKind.COORDINATION
            with pytest.raises(ValueError, match="sigma=1 symmetry"):
                NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=1)


class TestNormalize:
    def test_example_subtracts_constant(self):
        game = normalize_constant_sum(constant_sum_example())
        np.testing.assert_allclose(game.matrix(1, 0), [[-2.0, 0.0], [0.0, -2.0]])
        np.testing.assert_allclose(game.matrix(1, 0), -game.matrix(0, 1).T)
        assert game.sigma == -1

    def test_zero_sum_unchanged(self):
        game = matching_pennies()
        out = normalize_constant_sum(game)
        np.testing.assert_array_equal(out.matrix(0, 1), game.matrix(0, 1))
        np.testing.assert_array_equal(out.matrix(1, 0), game.matrix(1, 0))

    def test_random_three_agent_constant_sum(self, rng):
        # build by construction A[j, i] = c - A[i, j]', then normalize
        counts = (2, 3, 2)
        payoffs = {}
        for i, j in [(0, 1), (1, 2), (0, 2)]:
            a = rng.normal(size=(counts[i], counts[j]))
            c = float(rng.normal())
            payoffs[(i, j)] = a
            payoffs[(j, i)] = c - a.T
        game = NetworkGame(counts, payoffs)
        assert classify_game(game).kind in (GameKind.CONSTANT_SUM, GameKind.ZERO_SUM)
        out = normalize_constant_sum(game)
        for i, j in out.pairs():
            dev = out.matrix(i, j) + out.matrix(j, i).T
            assert np.max(np.abs(dev)) <= 1e-12

    def test_general_game_rejected(self):
        game = NetworkGame(
            (2, 2),
            {(0, 1): np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 0): np.zeros((2, 2))},
        )
        with pytest.raises(ValueError, match="not constant-sum"):
            normalize_constant_sum(game)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_normalized_constant_sum_is_zero_sum(data):
    n = data.draw(st.integers(2, 4))
    counts = tuple(data.draw(st.integers(2, 3)) for _ in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    payoffs = {}
    for i, j in chosen:
        entries = data.draw(
            st.lists(
                st.floats(-5, 5),
                min_size=counts[i] * counts[j],
                max_size=counts[i] * counts[j],
            )
        )
        c = data.draw(st.floats(-5, 5))
        a = np.array(entries).reshape(counts[i], counts[j])
        payoffs[(i, j)] = a
        payoffs[(j, i)] = c - a.T
    game = NetworkGame(counts, payoffs)
    out = normalize_constant_sum(game)
    assert classify_game(out).kind == GameKind.ZERO_SUM


class TestBipartite:
    def test_single_edge(self):
        assert bipartite_partition(matching_pennies()) == ((0,), (1,))

    def test_four_cycle(self):
        game = four_cycle_zero_sum()
        assert bipartite_partition(game) == ((0, 2), (1, 3))

    def test_triangle_has_none(self):
        assert bipartite_partition(triangle_zero_sum()) is None

    def test_isolated_agent_goes_first_side(self):
        game = NetworkGame(
            (2, 2, 2), {(0, 1): MP_MATRIX, (1, 0): -MP_MATRIX.T}
        )
        assert bipartite_partition(game) == ((0, 2), (1,))


class TestBipartiteReduction:
    def test_two_agent_identity(self):
        game = matching_pennies()
        red = reduce_bipartite_to_two_agent(game)
        assert red.partition == ((0,), (1,))
        np.testing.assert_array_equal(red.game.matrix(0, 1), game.matrix(0, 1))
        np.testing.assert_array_equal(red.game.matrix(1, 0), game.matrix(1, 0))

    def test_rejects_non_bipartite_game(self):
        with pytest.raises(ValueError, match="not bipartite"):
            reduce_bipartite_to_two_agent(triangle_zero_sum())

    @pytest.mark.parametrize("builder", [star_zero_sum, four_cycle_zero_sum])
    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_trajectories_match_original(self, builder, kind, rng):
        game = builder()
        red = reduce_bipartite_to_two_agent(game)
        regs = default_regularizers(game, kind)
        y0 = tuple(0.3 * rng.normal(size=k) for k in game.strategy_counts)
        traj = run(game, regs, y0, eta=1e-2, horizon=10.0, stride=10)
        meta_traj = run(
            red.game,
            red.meta_regularizers(regs),
            red.meta_vectors(y0),
            eta=1e-2,
            horizon=10.0,
            stride=10,
        )
        worst = 0.0
        for s, ms in zip(traj.states, meta_traj.states):
            for side in (0, 1):
                parts = red.split(side, ms.x[side])
                for agent, xv in parts.items():
                    worst = max(worst, float(np.max(np.abs(xv - s.x[agent]))))
        assert worst <= 1e-9


class TestVerifyNash:
    def test_matching_pennies_center(self):
        profile = MixedProfile((np.array([0.5, 0.5]), np.array([0.5, 0.5])))
        assert verify_nash(matching_pennies(), profile) == pytest.approx(0.0, abs=1e-15)

    def test_pure_profile_gains_two(self):
        profile = MixedProfile((np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        assert verify_nash(matching_pennies(), profile) == pytest.approx(2.0)

    def test_brute_force_pure_equilibrium(self):
        game = coordination_identity()
        found = pure_equilibria_2x2(game)
        assert found, "identity coordination game has pure equilibria"
        for e1, e2 in found:
            assert verify_nash(game, MixedProfile((e1, e2))) == pytest.approx(0.0, abs=1e-15)

    def test_fully_mixed_flag_rejects_boundary(self):
        profile = MixedProfile((np.array([1.0, 0.0]), np.array([0.5, 0.5])))
        with pytest.raises(ValueError, match="fully mixed"):
            verify_nash(matching_pennies(), profile, fully_mixed=True)

    def test_fully_mixed_flag_checks_equal_payoffs(self):
        game = matching_pennies()
        profile = MixedProfile((np.array([0.6, 0.4]), np.array([0.5, 0.5])))
        # agent 2 sees unequal payoff components under a biased opponent
        assert verify_nash(game, profile, fully_mixed=True) > 0.1


class TestSolve2x2:
    def test_matching_pennies(self):
        profile = solve_2x2_fully_mixed_nash(matching_pennies())
        np.testing.assert_allclose(profile[0], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(profile[1], [0.5, 0.5], atol=1e-12)

    def test_asymmetric_zero_sum(self):
        a = np.array([[2.0, -1.0], [-1.0, 1.0]])
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
        profile = solve_2x2_fully_mixed_nash(game)
        # agent 1 indifferent: 2q - (1-q) = -q + (1-q)  =>  q = 2/5
        assert profile[1][0] == pytest.approx(0.4, abs=1e-12)
        assert verify_nash(game, profile) == pytest.approx(0.0, abs=1e-12)
        assert verify_nash(game, profile, fully_mixed=True) == pytest.approx(0.0, abs=1e-12)

    def test_dominant_strategy_has_no_interior_solution(self):
        a = np.array([[3.0, 2.0], [1.0, 1.0]])
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T})
        assert solve_2x2_fully_mixed_nash(game) is None

    def test_degenerate_rows_return_none(self):
        a = np.array([[1.0, 2.0], [1.0, 2.0]])
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T})
        assert solve_2x2_fully_mixed_nash(game) is None

    def test_wrong_shape_rejected(self):
        from conftest import triangle_zero_sum

        with pytest.raises(ValueError, match="two agents"):
            solve_2x2_fully_mixed_nash(triangle_zero_sum())


class TestReduce2x2:
    def test_matching_pennies_coefficients(self):
        game, regs, y0 = mp_start("euclidean")
        red = reduce_2x2_to_generalized(game, regs, y0)
        assert red.a1 == pytest.approx(4.0)
        assert red.a2 == pytest.approx(-4.0)
        assert red.sigma == -1
        # expansion oracle: the scalar form must reproduce the bilinear payoff
        a_scalar = float(red.game.matrix(0, 1)[0, 0])
        b_scalar = float(red.game.b[(0, 1)][0])
        d_scalar = float(red.game.d[(0, 1)][0])
        c_scalar = float(red.game.c[(0, 1)])
        assert (a_scalar, b_scalar, d_scalar, c_scalar) == (4.0, -2.0, -2.0, 1.0)
        for u in np.linspace(0, 1, 7):
            for v in np.linspace(0, 1, 7):
                direct = scalar_payoff(MP_MATRIX, u, v)
                reduced = a_scalar * u * v + b_scalar * u + d_scalar * v + c_scalar
                assert reduced == pytest.approx(direct, abs=1e-12)

    def test_coordination_identity_sigma_plus(self):
        game = coordination_identity()
        regs = default_regularizers(game, "entropy")
        y0 = interior_start(game, regs, uniform_profile(game))
        red = reduce_2x2_to_generalized(game, regs, y0)
        assert red.sigma == 1
        assert red.a1 == pytest.approx(2.0)
        assert red.a2 == pytest.approx(2.0)
        for u in np.linspace(0, 1, 5):
            for v in np.linspace(0, 1, 5):
                direct = scalar_payoff(np.eye(2), u, v)
                reduced = float(
                    red.game.matrix(0, 1)[0, 0] * u * v
                    + red.game.b[(0, 1)][0] * u
                    + red.game.d[(0, 1)][0] * v
                    + red.game.c[(0, 1)]
                )
                assert reduced == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("pair", [(0, 0), (0, 2)])
    def test_affine_term_must_join_two_agents(self, pair):
        from hamgame import GeneralizedGame

        with pytest.raises(ValueError, match="two different agents"):
            GeneralizedGame(
                (1, 1), {(0, 1): np.eye(1), (1, 0): -np.eye(1)}, sigma=-1, b={pair: np.ones(1)}
            )

    def test_trivial_interaction_rejected(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])  # a1 = 0
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): np.zeros((2, 2))})
        regs = default_regularizers(game, "entropy")
        with pytest.raises(ValueError, match="trivial game"):
            reduce_2x2_to_generalized(game, regs, (np.zeros(2), np.zeros(2)))

    @pytest.mark.parametrize("kind", ["euclidean", "entropy"])
    def test_trajectories_match_original(self, kind):
        game, regs, y0 = mp_start(kind)
        red = reduce_2x2_to_generalized(game, regs, y0)
        traj = run(game, regs, y0, eta=1e-2, horizon=10.0, stride=10)
        reduced_traj = run(
            red.game, red.regularizers, red.y0, eta=1e-2, horizon=10.0, stride=10
        )
        worst = 0.0
        for s, rs in zip(traj.states, reduced_traj.states):
            worst = max(worst, abs(float(rs.x[0][0]) - float(s.x[0][0])))
            worst = max(worst, abs(float(rs.x[1][0]) - float(s.x[1][0])))
        assert worst <= 1e-9

    def test_rescaled_agent_two(self):
        # scale agent 2's payoffs so |a2| differs from |a1|
        a = MP_MATRIX
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -2.0 * a.T})
        regs = default_regularizers(game, "entropy")
        y0 = (np.array([0.2, -0.1]), np.array([0.3, 0.0]))
        red = reduce_2x2_to_generalized(game, regs, y0)
        assert red.ratio == pytest.approx(0.5)
        assert red.regularizers[1].scale == pytest.approx(0.5)
        assert red.game.matrix(0, 1)[0, 0] == pytest.approx(-red.game.matrix(1, 0)[0, 0])
        traj = run(game, regs, y0, eta=1e-2, horizon=5.0, stride=5)
        reduced_traj = run(
            red.game, red.regularizers, red.y0, eta=1e-2, horizon=5.0, stride=5
        )
        for s, rs in zip(traj.states, reduced_traj.states):
            assert float(rs.x[1][0]) == pytest.approx(float(s.x[1][0]), abs=1e-9)


def _drifted_triangle():
    """The centered triangle plus antisymmetric edge constants: a drift to shift away."""
    base = triangle_zero_sum()
    payoffs = dict(base.payoffs)
    for (i, j), c in {(0, 1): 0.7, (1, 2): -0.4, (0, 2): 0.2}.items():
        payoffs[(i, j)] = base.matrix(i, j) + c
        payoffs[(j, i)] = base.matrix(j, i) - c
    return NetworkGame(base.strategy_counts, payoffs, sigma=-1)


class TestDriftShift:
    def test_zero_drift_game_unchanged(self):
        game = triangle_zero_sum()  # centered: uniform profile has zero fields
        profile = MixedProfile(uniform_profile(game))
        out = shift_payoffs_to_zero_drift(game, profile)
        assert out is game

    def test_removes_drift(self, rng):
        # antisymmetric constants keep the game zero-sum and the equilibrium
        game = _drifted_triangle()
        profile = MixedProfile(uniform_profile(game))
        assert verify_nash(game, profile, fully_mixed=True) <= 1e-12
        drifted = payoff_fields(game, profile)
        assert max(float(np.max(np.abs(v))) for v in drifted) > 0.1
        fixed = shift_payoffs_to_zero_drift(game, profile)
        flat = payoff_fields(fixed, profile)
        assert max(float(np.max(np.abs(v))) for v in flat) <= 1e-12
        assert classify_game(fixed).kind == GameKind.ZERO_SUM


class TestMixedProfile:
    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError, match="simplex"):
            MixedProfile((np.array([0.5, 0.6]),))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="simplex"):
            MixedProfile((np.array([1.5, -0.5]),))

    def test_fully_mixed_flag(self):
        assert MixedProfile((np.array([0.5, 0.5]),)).is_fully_mixed()
        assert not MixedProfile((np.array([1.0, 0.0]),)).is_fully_mixed()


# ---------------------------------------------------------------------------
# payoff_fields through the payoff operator, against the per-edge loop


def _loop_payoff_fields(game, profile):
    """The per-edge loop payoff_fields replaced: one A[i, j] @ x_j per stored edge."""
    xs = [np.asarray(x, dtype=float) for x in profile]
    fields = []
    for i in range(game.n):
        v = np.zeros(game.strategy_counts[i])
        for j in range(game.n):
            if j != i and (i, j) in game.payoffs:
                v = v + game.payoffs[(i, j)] @ xs[j]
        fields.append(v)
    return fields


def _random_network(rng, n):
    """Random payoffs on a random edge set: agents may be isolated or have one strategy."""
    counts = tuple(int(k) for k in rng.integers(1, 6, size=n))
    payoffs = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.uniform() < 0.6:
                payoffs[(i, j)] = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=(counts[i], counts[j]))
    profile = tuple(rng.dirichlet(np.ones(k)) for k in counts)
    return NetworkGame(counts, payoffs), profile


def test_payoff_fields_match_edge_loop():
    rng = np.random.default_rng(157)
    seen = {"isolated": 0, "one_strategy": 0}
    for n in (2, 2, 3, 4, 5, 6) * 40:
        game, profile = _random_network(rng, n)
        got, want = payoff_fields(game, profile), _loop_payoff_fields(game, profile)
        assert len(got) == game.n
        for i, (g, w) in enumerate(zip(got, want)):
            assert g.shape == w.shape == (game.strategy_counts[i],)
            if n == 2:  # one neighbour per agent: the same product, the same bits
                np.testing.assert_array_equal(g, w)
            else:
                np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(w), initial=0.0)))
        seen["isolated"] += sum(not any(i in e for e in game.payoffs) for i in range(game.n))
        seen["one_strategy"] += game.strategy_counts.count(1)
    assert seen["isolated"] > 0 and seen["one_strategy"] > 0


def _shift_or_error(game, profile):
    """The shifted game, or the error's text without its violation figure."""
    try:
        return shift_payoffs_to_zero_drift(game, profile)
    except ValueError as err:
        return str(err).split(" (")[0]


@pytest.mark.parametrize(
    "make", [matching_pennies, triangle_zero_sum, four_cycle_zero_sum, star_zero_sum, _drifted_triangle]
)
def test_equilibrium_checks_unchanged_by_payoff_operator(monkeypatch, make):
    """verify_nash and the drift shift read the same fields as with the loop:
    the same bits on two agents, within 1e-12 on more."""
    import hamgame.games as games

    game = make()
    rng = np.random.default_rng(5)
    profiles = [MixedProfile(uniform_profile(game)),
                MixedProfile(tuple(rng.dirichlet(np.ones(k)) for k in game.strategy_counts))]

    def readings():
        checks = [verify_nash(game, p, fully_mixed=m) for p in profiles for m in (False, True)]
        return checks, _shift_or_error(game, profiles[0])

    now, shifted = readings()
    monkeypatch.setattr(games, "payoff_fields", _loop_payoff_fields)
    before, expected = readings()
    tol = 0.0 if game.n == 2 else 1e-12
    np.testing.assert_allclose(now, before, rtol=0.0, atol=tol)
    assert type(shifted) is type(expected)
    if isinstance(expected, str):  # not an interior equilibrium: rejected both ways
        assert shifted == expected
        return
    assert (shifted is game) == (expected is game)
    assert shifted.payoffs.keys() == expected.payoffs.keys()
    for edge, a in expected.payoffs.items():
        np.testing.assert_allclose(shifted.payoffs[edge], a, rtol=0.0, atol=tol)
