"""Payoff field, stepping schemes, simulation loop, and trajectory files."""

import json
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamgame import (
    GeneralizedGame,
    IntegratorConfig,
    NetworkGame,
    Regularizer,
    ProductRegularizer,
    choice_map,
    conjugate_value,
    default_regularizers,
    read_trajectory_csv,
    simulate,
    verify_hamiltonian_structure,
    write_trajectory_csv,
    write_trajectory_metadata,
)
from hamgame import dynamics
from hamgame.cli import main
from hamgame.dynamics import SCHEMES, PayoffOperator, _Flow
from hamgame.regularizers import BlockChoiceMap, payoff_limit

from conftest import (
    MP_MATRIX,
    FloatProduct,
    FrozenFloatProduct,
    _random_case,
    _ref_choice,
    _ref_field,
    _ref_motion,
    frozen_float_path,
    harmonic_orbit,
    leapfrog_there_and_back,
    mp_start,
    run,
    triangle_zero_sum,
)


def mp_center_state(kind="euclidean"):
    """Matching Pennies at its center: (game, regs, y0, x0), x0 the strategies at the payoffs y0."""
    game, regs, y0 = mp_start(kind, x1=(0.5, 0.5), x2=(0.5, 0.5))
    return game, regs, y0, strategies(regs, y0)


def strategies(regs, y0):
    return tuple(choice_map(reg, v) for reg, v in zip(regs, y0))


def payoff_field(game, xs):
    """dy/dt at per-agent strategies xs, one vector per agent."""
    op = PayoffOperator(game)
    return op.split(op.field(op.join(xs)))


def step_once(scheme, game, regs, y0, eta):
    """The state after one step of the scheme from (t=0, X=0, y=y0)."""
    return simulate(game, regs, y0, IntegratorConfig(scheme, eta, eta, 1)).states[-1]


class TestVectorField:
    def test_center_is_fixed_point_of_motion(self):
        game, regs, _, x0 = mp_center_state()
        dy = payoff_field(game, x0)
        np.testing.assert_allclose(dy[0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(dy[1], [0.0, 0.0], atol=1e-15)

    def test_pure_opponent_column(self):
        game, regs, _, _ = mp_center_state()
        y0 = (np.array([0.0, 0.0]), np.array([50.0, -50.0]))  # x2 -> (1, 0)
        dy = payoff_field(game, strategies(regs, y0))
        np.testing.assert_allclose(dy[0], MP_MATRIX[:, 0], atol=1e-15)

    def test_zero_sum_identity(self, rng):
        game = triangle_zero_sum(centered=False)
        regs = default_regularizers(game, "entropy")
        for _ in range(20):
            y0 = tuple(rng.normal(size=k) for k in game.strategy_counts)
            xs = strategies(regs, y0)
            dy = payoff_field(game, xs)
            total = sum(float(x @ g) for x, g in zip(xs, dy))
            assert total == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_finite(self):
        game, regs, y0, _ = mp_center_state()
        bad = np.concatenate([[np.inf, 0.0], y0[1]])
        with pytest.raises(ValueError, match="non-finite payoff vector y"):
            verify_hamiltonian_structure(game, regs, bad, np.zeros(4))


class TestEuler:
    def test_fixed_point_moves_only_time(self):
        game, regs, y0, x0 = mp_center_state()
        out = step_once("euler", game, regs, y0, 0.1)
        assert out.t == pytest.approx(0.1)
        np.testing.assert_array_equal(out.y[0], y0[0])
        np.testing.assert_allclose(out.x[0], x0[0], atol=1e-15)

    def test_energy_never_decreases_one_step(self, rng):
        game, regs, _, _ = mp_center_state()
        for _ in range(25):
            y0 = tuple(rng.normal(size=2) for _ in range(2))
            before = sum(conjugate_value(r, v) for r, v in zip(regs, y0))
            after_state = step_once("euler", game, regs, y0, 0.1)
            after = sum(conjugate_value(r, v) for r, v in zip(regs, after_state.y))
            assert after >= before - 1e-12

    def test_first_order_consistency(self):
        game, regs, y0 = mp_start("entropy", x1=(0.55, 0.45), x2=(0.45, 0.55))

        def local_error(eta):
            coarse = step_once("euler", game, regs, y0, eta)
            # rk4 truth: one run of 100 steps of eta/100, error negligible
            fine = run(game, regs, y0, scheme="rk4", eta=eta / 100, horizon=eta, stride=100)
            return max(
                float(np.max(np.abs(a - b))) for a, b in zip(coarse.y, fine.states[-1].y)
            )

        e1, e2 = local_error(0.1), local_error(0.05)
        # local error of a first-order step is O(eta^2): quartering under halving
        assert 3.0 <= e1 / e2 <= 5.0


class TestRk4:
    def test_fixed_point(self):
        game, regs, y0, _ = mp_center_state()
        out = step_once("rk4", game, regs, y0, 0.1)
        np.testing.assert_allclose(out.y[0], y0[0], atol=1e-15)

    def test_period_two_pi(self):
        game, regs, y0 = mp_start("euclidean")
        # step chosen to land exactly on the period (2 pi / 6283 ~ 1e-3)
        eta = 2 * np.pi / 6283
        traj = run(game, regs, y0, scheme="rk4", eta=eta, horizon=2 * np.pi, stride=10)
        x_first = np.concatenate(traj.states[0].x)
        x_last = np.concatenate(traj.states[-1].x)
        assert float(np.max(np.abs(x_last - x_first))) <= 1e-6

    def test_matches_harmonic_oracle(self):
        game, regs, y0 = mp_start("euclidean")
        traj = run(game, regs, y0, scheme="rk4", eta=1e-3, horizon=5.0, stride=100)
        for state in traj.states:
            p, q = harmonic_orbit(0.6, 0.5, state.t)
            assert float(state.x[0][0]) == pytest.approx(p, abs=1e-9)
            assert float(state.x[1][0]) == pytest.approx(q, abs=1e-9)

    def test_fourth_order_convergence(self):
        game, regs, y0 = mp_start("entropy", x1=(0.7, 0.3), x2=(0.4, 0.6))
        horizon = 2.0

        def endpoint(eta):
            traj = run(game, regs, y0, scheme="rk4", eta=eta, horizon=horizon, stride=10**9)
            return np.concatenate(traj.states[-1].y)

        fine = endpoint(1e-3)  # reference: errors here are ~(eta/40)^4 smaller
        errs = [float(np.max(np.abs(endpoint(eta) - fine))) for eta in (0.08, 0.04)]
        ratio = errs[0] / errs[1]
        assert 10.0 <= ratio <= 25.0  # fourth order gives 16


class TestLeapfrog:
    def test_fixed_point(self):
        game, regs, y0, _ = mp_center_state()
        out = step_once("leapfrog", game, regs, y0, 0.1)
        np.testing.assert_allclose(out.y[0], y0[0], atol=1e-15)

    def test_reversibility(self):
        game, regs, y0 = mp_start("entropy", x1=(0.62, 0.38), x2=(0.45, 0.55))
        y, X = leapfrog_there_and_back(game, regs, y0, 0.05, 5)
        for v, v0 in zip(y, y0):
            np.testing.assert_allclose(v, v0, atol=1e-12)
        for p in X:
            np.testing.assert_allclose(p, np.zeros_like(p), atol=1e-12)

    def test_rejects_untagged_game(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): np.zeros((2, 2))})
        regs = default_regularizers(game, "entropy")
        for lead in ((), (3,)):  # one start, a batch
            with pytest.raises(ValueError, match="no Hamiltonian structure"):
                step_once("leapfrog", game, regs, (np.zeros(lead + (2,)), np.zeros(lead + (2,))), 0.1)

    def test_bounded_energy_error_while_rk4_drifts(self):
        game, regs, y0 = mp_start("euclidean")

        def drift_curve(scheme, eta):
            traj = run(game, regs, y0, scheme=scheme, eta=eta, horizon=100.0, stride=50)
            h = traj.energy
            return np.abs(h - h[0]), traj.t

        lf, t = drift_curve("leapfrog", 1e-2)
        assert float(np.max(lf)) < 1e-3
        # bounded: late-window error no worse than a small multiple of early-window
        early = float(np.max(lf[t <= 25.0]))
        late = float(np.max(lf[t >= 75.0]))
        assert late <= 3.0 * max(early, 1e-14)
        rk, t = drift_curve("rk4", 5e-2)
        # secular: the rk4 energy error accumulates roughly linearly in time
        assert float(rk[-1]) > 5.0 * float(np.max(rk[t <= 10.0]))
        assert float(rk[-1]) > 1e-9  # measurably above rounding noise


class TestStepperConsistency:
    def test_one_step_agreement(self):
        game, regs, y0 = mp_start("entropy", x1=(0.6, 0.4), x2=(0.45, 0.55))
        eta = 1e-3
        outs = [step_once(scheme, game, regs, y0, eta) for scheme in ("euler", "rk4", "leapfrog")]
        for a in outs:
            for b in outs:
                dev = max(
                    float(np.max(np.abs(va - vb))) for va, vb in zip(a.y, b.y)
                )
                assert dev <= 10.0 * eta**2

    def test_rk4_and_leapfrog_second_order_agreement(self):
        game, regs, y0 = mp_start("entropy", x1=(0.6, 0.4), x2=(0.45, 0.55))

        def gap(eta):
            a = run(game, regs, y0, scheme="rk4", eta=eta, horizon=2.0, stride=10**9)
            b = run(game, regs, y0, scheme="leapfrog", eta=eta, horizon=2.0, stride=10**9)
            return max(
                float(np.max(np.abs(va - vb)))
                for va, vb in zip(a.states[-1].y, b.states[-1].y)
            )

        g1, g2 = gap(0.02), gap(0.01)
        assert 3.0 <= g1 / g2 <= 6.0  # second order gives 4

    def test_y_reconstruction_residual(self):
        game, regs, y0 = mp_start("entropy", x1=(0.6, 0.4), x2=(0.45, 0.55))

        def residual(scheme, eta):
            traj = run(game, regs, y0, scheme=scheme, eta=eta, horizon=4.0, stride=10**9)
            s = traj.states[-1]
            z = _ref_motion(game, s.y0, s.X, s.t)
            return max(float(np.max(np.abs(a - b))) for a, b in zip(s.y, z))

        # rk4 and euler satisfy the relation stage by stage: rounding only
        assert residual("rk4", 1e-2) <= 1e-12
        assert residual("euler", 1e-2) <= 1e-12
        # leapfrog staggers the two halves: residual shrinks at second order
        r1, r2 = residual("leapfrog", 0.02), residual("leapfrog", 0.01)
        assert r1 <= 1e-2
        assert 3.0 <= r1 / r2 <= 6.0

    def test_derived_strategies_recomputed_exactly(self):
        game, regs, y0 = mp_start("entropy", x1=(0.6, 0.4), x2=(0.45, 0.55))
        traj = run(game, regs, y0, scheme="rk4", eta=1e-2, horizon=1.0, stride=7)
        for s in traj.states:
            for reg, yv, xv in zip(regs, s.y, s.x):
                np.testing.assert_array_equal(xv, choice_map(reg, yv))


class TestSimulate:
    def test_zero_horizon_single_snapshot(self):
        game, regs, y0 = mp_start()
        traj = simulate(game, regs, y0, IntegratorConfig("rk4", 1e-3, 0.0, 10))
        assert len(traj.states) == 1
        assert traj.states[0].t == 0.0
        assert np.all(traj.states[0].X[0] == 0.0)

    def test_snapshot_stride_and_final(self):
        game, regs, y0 = mp_start()
        traj = simulate(game, regs, y0, IntegratorConfig("rk4", 0.1, 1.05, 3))
        # 10 steps: snapshots at 0, 3, 6, 9, 10
        assert len(traj.states) == 5
        assert traj.states[-1].t == pytest.approx(1.0, abs=1e-12)

    def test_time_is_step_count_times_eta(self):
        game, regs, y0 = mp_start()
        traj = simulate(game, regs, y0, IntegratorConfig("euler", 1e-3, 12.566, 12566), energy="none")
        assert traj.states[-1].t == 12566 * 1e-3  # a running sum would be off by 1.5e-12

    def test_effective_horizon_recorded(self):
        game, regs, y0 = mp_start()
        traj = simulate(game, regs, y0, IntegratorConfig("rk4", 0.3, 1.0, 1))
        assert traj.metadata["horizon"] == 1.0
        assert traj.metadata["effective_horizon"] == traj.states[-1].t == 3 * 0.3

    def test_closed_orbit_matches_table_phase_portrait(self):
        game, regs, y0 = mp_start("euclidean")
        traj = run(game, regs, y0, scheme="rk4", eta=1e-3, horizon=2 * np.pi, stride=50)
        xs = traj.strategy_matrix()
        radii = (xs[:, 0] - 0.5) ** 2 + (xs[:, 2] - 0.5) ** 2
        np.testing.assert_allclose(radii, 0.01, atol=1e-9)

    def test_euler_spirals_outward(self):
        game, regs, y0 = mp_start("euclidean")
        ref = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        traj = run(game, regs, y0, scheme="euler", eta=0.1, horizon=10.0, stride=10, ref=ref)
        d = traj.bregman
        assert d[-1] > d[0] * 1.5
        assert np.all(np.diff(d) >= -1e-12)

    def test_blow_up_truncates_with_diagnostic(self):
        a = 1e13 * MP_MATRIX
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
        regs = default_regularizers(game, "euclidean")
        y0 = (np.array([3.0, -3.0]), np.array([2.0, 1.0]))
        traj = simulate(game, regs, y0, IntegratorConfig("euler", 1.0, 5.0, 1))
        diag = traj.metadata["diagnostics"]
        assert diag["truncated"]
        assert diag["blow_up_step"] is not None
        assert len(traj.states) < 6

    def test_payoffs_past_projection_precision_truncate(self):
        # at scale 1e-6 the projection of a row of 2 keeps its sum within
        # DOMAIN_TOL only up to |y| = 2e-6 * DOMAIN_TOL * 2^52 / 2^2 =
        # 2.2518, far below BLOW_UP_LIMIT (see regularizers.payoff_limit)
        a = 1e3 * MP_MATRIX
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
        regs = tuple(Regularizer("euclidean", dim=2, scale=1e-6) for _ in range(2))
        y0 = (np.array([3e-6, -3e-6]), np.array([2e-6, 1e-6]))
        for lead in ((), (3,)):
            start = tuple(np.broadcast_to(v, lead + v.shape) for v in y0)
            traj = simulate(game, regs, start, IntegratorConfig("euler", 1e-3, 0.5, 1))
            diag = traj.metadata["diagnostics"]
            assert diag["truncated"] and 1 < diag["blow_up_step"] < 500
            assert diag["reason"] == (
                "agent 1: |y| exceeded 2.2518, past the precision of its euclidean projection"
            )
            assert np.all(np.isfinite(traj.energy))
            assert payoff_limit(regs[0]) == 2e-6 * 1e-9 * 2.0**52 / 4
            assert np.abs(traj.y).max() <= payoff_limit(regs[0])

    def test_near_tie_payoffs_past_limit_truncate_instead_of_raising(self):
        # every payoff row gains the same c per step, so the rows stay near
        # ties, where all three entries count toward the projection's
        # threshold; near |y| = 1e7 their sums miss 1 by more than
        # DOMAIN_TOL and the H reading would raise "outside simplex domain"
        a = 1e5 * np.ones((3, 3))
        game = NetworkGame((3, 3), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
        regs = tuple(Regularizer("euclidean", dim=3) for _ in range(2))
        rng = np.random.default_rng(3)
        for lead in ((), (2000,)):
            y0 = tuple(0.2 * rng.uniform(-1, 1, size=lead + (3,)) for _ in range(2))
            traj = simulate(game, regs, y0, IntegratorConfig("euler", 1.0, 200.0, 1))
            diag = traj.metadata["diagnostics"]
            assert diag["truncated"] and diag["blow_up_step"] == 11
            assert diag["reason"] == (
                "agent 1: |y| exceeded 1.0008e+06, past the precision of its euclidean projection"
            )
            assert len(traj.t) == 11 and np.all(np.isfinite(traj.energy))

    def test_overflowing_step_truncates_as_non_finite(self):
        a = 1e308 * MP_MATRIX
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
        regs = default_regularizers(game, "euclidean")
        y0 = (np.array([3.0, -3.0]), np.array([2.0, 1.0]))
        with np.errstate(over="ignore"):
            traj = simulate(game, regs, y0, IntegratorConfig("euler", 10.0, 30.0, 1))
        diag = traj.metadata["diagnostics"]
        assert diag == {"truncated": True, "blow_up_step": 1, "reason": "non-finite payoff vector"}
        assert len(traj.states) == 1

    def test_batched_matches_individual_runs(self, rng):
        game, regs, _ = mp_start("entropy")
        singles = [tuple(rng.normal(size=2) for _ in range(2)) for _ in range(3)]
        batch = tuple(
            np.stack([s[i] for s in singles]) for i in range(2)
        )
        btraj = run(game, regs, batch, scheme="rk4", eta=0.05, horizon=1.0, stride=5)
        for row, y0 in enumerate(singles):
            straj = run(game, regs, y0, scheme="rk4", eta=0.05, horizon=1.0, stride=5)
            for bs, ss in zip(btraj.states, straj.states):
                for i in range(2):
                    np.testing.assert_allclose(bs.y[i][row], ss.y[i], atol=1e-14)

    def test_determinism(self):
        game, regs, y0 = mp_start("entropy")
        a = run(game, regs, y0, scheme="rk4", eta=0.01, horizon=2.0, stride=10)
        b = run(game, regs, y0, scheme="rk4", eta=0.01, horizon=2.0, stride=10)
        for sa, sb in zip(a.states, b.states):
            for va, vb in zip(sa.y, sb.y):
                np.testing.assert_array_equal(va, vb)


class TestTrajectoryFiles:
    def test_round_trip_and_formatting(self, tmp_path):
        game, regs, y0 = mp_start("euclidean")
        ref = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        traj = run(game, regs, y0, scheme="rk4", eta=0.01, horizon=1.0, stride=10, ref=ref)
        csv_path = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, game, csv_path)
        header, data = read_trajectory_csv(csv_path)
        assert header == ["t", "x_1_1", "x_1_2", "x_2_1", "x_2_2", "H", "F", "D"]
        np.testing.assert_array_equal(data[:, 0], traj.t)  # exact round trip
        np.testing.assert_array_equal(data[:, 1:5], traj.strategy_matrix())
        np.testing.assert_array_equal(data[:, 5], traj.energy)
        np.testing.assert_array_equal(data[:, 6], traj.fenchel)

    def test_missing_readings_are_empty_cells(self, tmp_path):
        game, regs, y0 = mp_start("euclidean")
        traj = run(game, regs, y0, scheme="rk4", eta=0.1, horizon=0.5, stride=1)
        csv_path = tmp_path / "noref.csv"
        write_trajectory_csv(traj, game, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[1].endswith(",,")  # F and D unavailable without a reference
        header, data = read_trajectory_csv(csv_path)
        assert np.all(np.isnan(data[:, 6])) and np.all(np.isnan(data[:, 7]))

    def test_byte_identical_reruns(self, tmp_path):
        game, regs, y0 = mp_start("entropy")
        blobs = []
        for name in ("a.csv", "b.csv"):
            traj = run(game, regs, y0, scheme="euler", eta=0.05, horizon=2.0, stride=4)
            write_trajectory_csv(traj, game, tmp_path / name)
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_metadata_sidecar(self, tmp_path):
        game, regs, y0 = mp_start("entropy")
        traj = run(game, regs, y0, scheme="rk4", eta=0.1, horizon=1.0, stride=5)
        meta_path = tmp_path / "orbit.meta.json"
        write_trajectory_metadata(traj, "deadbeef", meta_path)
        meta = json.loads(meta_path.read_text())
        assert meta["game_hash"] == "deadbeef"
        assert meta["scheme"] == "rk4"
        assert meta["snapshots"] == len(traj.states)
        assert meta["regularizers"][0]["kind"] == "entropy"

    def test_metadata_schema_and_timing(self, tmp_path):
        game, regs, y0 = mp_start("entropy")
        traj = run(game, regs, y0, scheme="rk4", eta=0.1, horizon=1.0, stride=5)
        meta_path = tmp_path / "orbit.meta.json"
        write_trajectory_metadata(traj, "deadbeef", meta_path)
        for meta in (traj.metadata, json.loads(meta_path.read_text())):
            assert meta["schema_version"] == 3
            assert meta["python_version"] == platform.python_version()
            assert meta["numpy_version"] == np.__version__
            assert set(meta["timing"]) == {"step_s", "instruments_s", "io_s", "steps_per_s"}
            assert all(v >= 0.0 for v in meta["timing"].values())
        game_file = Path(__file__).resolve().parent.parent / "games" / "matching_pennies.json"
        argv = ["simulate", "--game", str(game_file), "--scheme", "rk4", "--eta", "0.1",
                "--horizon", "1.0", "--out", str(tmp_path)]
        assert main(argv) == 0  # the command fills in the time of its CSV write
        meta = json.loads((tmp_path / "matching_pennies_rk4.meta.json").read_text())
        assert meta["schema_version"] == 3 and meta["timing"]["io_s"] > 0.0


class TestIntegratorConfig:
    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError, match="step size"):
            IntegratorConfig("rk4", 0.0, 1.0, 1)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            IntegratorConfig("verlet", 0.1, 1.0, 1)

    @pytest.mark.parametrize("stride", [0, 1.5, 2.0])
    def test_rejects_stride_that_is_not_a_positive_integer(self, stride):
        with pytest.raises(ValueError, match="snapshot stride must be a positive integer"):
            IntegratorConfig("rk4", 0.1, 1.0, stride)

    def test_leapfrog_alias(self):
        assert IntegratorConfig("leapfrog", 0.1, 1.0, 1).scheme == "symplectic_leapfrog"


# ---------------------------------------------------------------------------
# Differential test: simulate integrates on flat (batch..., D) arrays, and a
# single trajectory on flat lists of floats.  The reference below is a frozen
# copy of the earlier per-agent tuple steppers, on the per-agent choice maps,
# field and motions of conftest, so it shares no arithmetic with the code
# under test.  For one trajectory its field and motions also come as explicit
# float loops in the order of the float payoff product, and the whole run is
# replayed on the frozen float path (conftest) that generated code replaced.


def _ref_product_floats(game, i, xs):
    """sum_j A[i, j] x_j at one profile as s = 0.0, s += A[i, j][r, c] * x_j[c]
    over neighbours j, then columns c, in ascending order."""
    out = []
    for r in range(game.strategy_counts[i]):
        s = 0.0
        for j in range(game.n):
            a = game.payoffs.get((i, j))
            if a is not None:
                for c in range(a.shape[1]):
                    s += float(a[r, c]) * float(xs[j][c])
        out.append(s)
    return np.array(out)


def _ref_drift(game, i):
    """The affine terms b[i, j] of agent i, edge by edge."""
    if not isinstance(game, GeneralizedGame):
        return []
    return [game.b[(i, j)] for j in range(game.n) if (i, j) in game.b]


def _ref_field_floats(game, xs):
    """_ref_field at one profile; the affine terms b[i, j] are added edge by edge."""
    out = []
    for i in range(game.n):
        total = _ref_product_floats(game, i, xs)
        for bv in _ref_drift(game, i):
            total = total + bv
        out.append(total)
    return out


def _ref_motion_floats(game, y0, X, t):
    """_ref_motion at one profile: y0 + the float product, then b t edge by edge."""
    out = []
    for i in range(game.n):
        z = y0[i] + _ref_product_floats(game, i, X)
        for bv in _ref_drift(game, i):
            z = z + bv * t
        out.append(z)
    return out


def _ref_stepper(scheme, game, regs, state, eta, floats=False):
    t, y, X, x, y0 = state
    cmap = lambda ys: [_ref_choice(r, v) for r, v in zip(regs, ys)]  # noqa: E731
    field, motion = (_ref_field_floats, _ref_motion_floats) if floats else (_ref_field, _ref_motion)
    if scheme == "euler":
        dy = field(game, x)
        y = [v + eta * g for v, g in zip(y, dy)]
        X = [p + eta * g for p, g in zip(X, x)]
    elif scheme == "rk4":
        def stage(ys):
            xs = cmap(ys)
            return xs, field(game, xs)

        k1x, k1y = stage(y)
        k2x, k2y = stage([v + 0.5 * eta * g for v, g in zip(y, k1y)])
        k3x, k3y = stage([v + 0.5 * eta * g for v, g in zip(y, k2y)])
        k4x, k4y = stage([v + eta * g for v, g in zip(y, k3y)])
        sixth = eta / 6.0
        y = [
            v + sixth * (a + 2.0 * b + 2.0 * c + d)
            for v, a, b, c, d in zip(y, k1y, k2y, k3y, k4y)
        ]
        X = [
            p + sixth * (a + 2.0 * b + 2.0 * c + d)
            for p, a, b, c, d in zip(X, k1x, k2x, k3x, k4x)
        ]
    else:
        half = 0.5 * eta
        f0 = field(game, cmap(motion(game, y0, X, t)))
        y_half = [v + half * g for v, g in zip(y, f0)]
        X = [p + eta * g for p, g in zip(X, cmap(y_half))]
        f1 = field(game, cmap(motion(game, y0, X, t + eta)))
        y = [v + half * g for v, g in zip(y_half, f1)]
    return t + eta, y, X, cmap(y), y0


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["zero_sum", "coordination", "affine", "bipartite_fold"]),
    counts=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([None, 3]),
    scheme=st.sampled_from(["euler", "rk4", "symplectic_leapfrog"]),
    eta=st.sampled_from([0.01, 0.05]),
    steps=st.integers(1, 12),
    stride=st.integers(1, 5),
)
# a drift game's leapfrog: at step 7, 6 * 0.05 is not the carried 0.25 + 0.05, and the
# kick recomputed at 6 * 0.05 changes the bits of this game's run
@example(family="affine", counts=[2, 2], seed=23, batch=None, scheme="symplectic_leapfrog", eta=0.05, steps=12, stride=1)
def test_flat_loop_matches_tuple_steppers(family, counts, seed, batch, scheme, eta, steps, stride):
    if family == "bipartite_fold" and len(counts) < 3:
        counts = counts + [2]
    game, regs, y0 = _random_case(family, counts, seed, batch)
    config = IntegratorConfig(scheme, eta, steps * eta, stride)
    traj = simulate(game, regs, y0, config, energy="none")

    y0 = [np.asarray(v, dtype=float) for v in y0]
    for reg, v in zip(regs, y0):  # the public per-agent choice map, too
        np.testing.assert_array_equal(choice_map(reg, v), _ref_choice(reg, v))
    x0 = [_ref_choice(r, v) for r, v in zip(regs, y0)]

    def reference(floats):
        state = (0.0, y0, [np.zeros_like(v) for v in y0], x0, y0)
        expected = [state]
        for i in range(1, steps + 1):
            state = _ref_stepper(scheme, game, regs, state, eta, floats)
            state = (i * eta,) + state[1:]  # simulate keeps time as i * eta, not a running sum
            if i % stride == 0 or i == steps:
                expected.append(state)
        return expected

    def assert_matches(expected, exact):
        assert len(traj.states) == len(expected)
        for got, (t, y, X, x, _) in zip(traj.states, expected):
            assert got.t == t
            for a, b in zip(got.y + got.X + got.x, tuple(y) + tuple(X) + tuple(x)):
                assert a.shape == b.shape
                if exact:
                    np.testing.assert_array_equal(a, b)
                else:
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    # one neighbour per agent: same operations, same bits; on a single
    # trajectory with the float loops' order, in a batch with BLAS
    assert_matches(reference(floats=batch is None), exact=game.n == 2)
    if batch is None:  # against the BLAS products the float product replaced
        assert_matches(reference(floats=False), exact=False)
        with frozen_float_path():
            frozen = simulate(game, regs, y0, config, energy="none")
        _assert_same_run(traj, frozen)


def _assert_same_run(got, want):
    """Two runs with the same bits in t, y, X, x and H, and the same diagnostics."""
    for a, b in ((got.t, want.t), (got.y, want.y), (got.X, want.X), (got.x, want.x), (got.energy, want.energy)):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert got.metadata["diagnostics"] == want.metadata["diagnostics"]


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["zero_sum", "coordination", "affine", "bipartite_fold"]),
    counts=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(["euler", "rk4", "symplectic_leapfrog"]),
    steps=st.integers(1, 12),
    stride=st.integers(1, 5),
)
def test_single_run_matches_one_row_batch(family, counts, seed, scheme, steps, stride):
    # one start steps on Python floats with the fixed-order payoff product,
    # the same start as a one-row batch on arrays with BLAS
    if family == "bipartite_fold" and len(counts) < 3:
        counts = counts + [2]
    game, regs, y0 = _random_case(family, counts, seed, None)
    config = IntegratorConfig(scheme, 0.05, steps * 0.05, stride)
    one = simulate(game, regs, y0, config)
    batch = simulate(game, regs, tuple(np.asarray(v)[None] for v in y0), config)
    assert not one.batched and batch.batched
    np.testing.assert_array_equal(one.t, batch.t)
    for a, b in ((one.y, batch.y), (one.X, batch.X), (one.x, batch.x), (one.energy, batch.energy)):
        assert b.shape == (len(one.t), 1) + a.shape[1:]
        np.testing.assert_allclose(a, b[:, 0], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["entropy", "euclidean"])
def test_rows_of_3000_terms_compile_and_match_frozen_product(kind):
    # agent 0's rows hold 3,600 stored terms: one generated expression that
    # long overflows the compiler's recursion, so the sums run on in chunks;
    # agents 1 and 2 are not joined, which keeps the code to 14,400 terms
    rng = np.random.default_rng(11)
    counts = (2, 1800, 1800)
    payoffs = {}
    for i, j in ((0, 1), (0, 2)):
        a = rng.normal(size=(counts[i], counts[j]))
        a[rng.uniform(size=a.shape) < 0.1] = 0.0
        payoffs[(i, j)], payoffs[(j, i)] = a, -a.T
    b = {(0, 1): rng.normal(size=2), (2, 1): rng.normal(size=1800)}
    game = GeneralizedGame(counts, payoffs, sigma=-1, b=b)
    op, frozen = FloatProduct(game), FrozenFloatProduct(game)
    x, y0 = rng.uniform(size=sum(counts)).tolist(), rng.normal(size=sum(counts)).tolist()
    for got, want in ((op.linear(x), frozen.linear(x)), (op.field(x), frozen.field(x)),
                      (op.motion(y0, x, 0.35), frozen.motion(y0, x, 0.35))):
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    wide = ProductRegularizer((Regularizer(kind, dim=1000), Regularizer(kind, dim=800)))
    regs = (Regularizer("euclidean", dim=2), Regularizer(kind, dim=1800), wide)
    start = tuple(0.1 * rng.normal(size=k) for k in counts)
    for scheme in ("euler", "symplectic_leapfrog"):
        config = IntegratorConfig(scheme, 1e-3, 3e-3, 1)
        traj = simulate(game, regs, start, config)
        with frozen_float_path():
            _assert_same_run(traj, simulate(game, regs, start, config))


@pytest.mark.parametrize(
    "where, bad",
    [(w, b) for w in ("payoff", "drift") for b in (np.inf, -np.inf, np.nan)] + [("scale", np.inf)],
)
def test_non_finite_coefficients_truncate_as_before(where, bad):
    # non-finite constants are bound by name in the generated code: the run
    # truncates at the same step with the same diagnosis as on the frozen
    # list loop, and as a one-row batch; rk4's stage points and the
    # leapfrog's kicks map non-finite payoffs, which truncates the run too
    # (an infinite scale maps every payoff to the centre and never blows up).
    # A non-finite drift has no energy to read: b t is nan at t = 0, so H
    # reads NaN on those runs.
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 3))
    scale = bad if where == "scale" else 1.0
    regs = (Regularizer("entropy", dim=2, scale=scale), Regularizer("euclidean", dim=3, scale=scale))
    if where == "payoff":
        a[1, 2] = bad
        game = NetworkGame((2, 3), {(0, 1): a, (1, 0): rng.normal(size=(3, 2))})
    else:
        b = {(1, 0): np.array([0.5, bad if where == "drift" else 0.5, -0.5])}
        game = GeneralizedGame((2, 3), {(0, 1): a, (1, 0): -a.T}, sigma=-1, b=b)
    y0 = (np.array([0.2, -0.1]), np.array([0.1, 0.0, -0.3]))
    schemes = ["euler", "rk4"] + (["symplectic_leapfrog"] if game.sigma else [])
    for scheme in schemes:
        config = IntegratorConfig(scheme, 0.05, 0.5, 1)
        with np.errstate(all="ignore"):
            got = simulate(game, regs, y0, config)
            with frozen_float_path():
                want = simulate(game, regs, y0, config)
            batch = simulate(game, regs, tuple(v[None] for v in y0), config)
        _assert_same_run(got, want)
        if where == "drift":
            assert np.isnan(got.energy).all() and np.isnan(batch.energy).all()
        assert batch.metadata["diagnostics"] == got.metadata["diagnostics"]
        np.testing.assert_allclose(batch.y[:, 0], got.y, rtol=1e-12, atol=1e-12)
        if where != "scale":
            assert got.metadata["diagnostics"] == {
                "truncated": True, "blow_up_step": 1, "reason": "non-finite payoff vector"}
            assert len(got.t) == 1


def _overflowing_stage_game():
    """Agent 2 holds still and pushes agent 0's first payoff up by 1 per unit
    time; agent 1's first payoff gains 1e308 times agent 0's first strategy,
    which a euclidean projection keeps at exactly 0 until y_0[0] reaches -2."""
    game = NetworkGame((2, 2, 2), {(0, 2): np.array([[1.0, 0.0], [0.0, 0.0]]),
                                   (1, 0): np.array([[1e308, 0.0], [0.0, 0.0]])})
    y0 = (np.array([-20.0, 0.0]), np.array([0.0, 0.0]), np.array([10.0, 0.0]))
    return game, default_regularizers(game, "euclidean"), y0


@pytest.mark.parametrize("stride", [1, 2, 4])
def test_non_finite_stage_point_truncates_at_its_step(stride):
    # at eta = 8, y_0[0] is -20, -12, -4 after steps 0 to 2: step 3's second
    # stage maps agent 0 to (0.5, 0.5), and its third stage point overflows.
    # The run ends at step 3, recording the last finite state off the stride.
    # Euler only sees the overflow in step 4's result.
    game, regs, y0 = _overflowing_stage_game()
    expected = {"rk4": (3, [0.0, 8.0, 16.0]), "euler": (4, [0.0, 8.0, 16.0, 24.0])}
    for scheme, (step, times) in expected.items():
        config = IntegratorConfig(scheme, 8.0, 48.0, stride)
        with np.errstate(over="ignore", invalid="ignore"):
            got = simulate(game, regs, y0, config)
            with frozen_float_path():
                want = simulate(game, regs, y0, config)
            batch = simulate(game, regs, tuple(v[None] for v in y0), config)
        _assert_same_run(got, want)
        diag = {"truncated": True, "blow_up_step": step, "reason": "non-finite payoff vector"}
        assert got.metadata["diagnostics"] == batch.metadata["diagnostics"] == diag
        recorded = [t for i, t in enumerate(times) if i % stride == 0 or i == step - 1]
        assert got.t.tolist() == recorded
        np.testing.assert_array_equal(got.y[-1], [times[-1] - 20.0, 0.0, 0.0, 0.0, 10.0, 0.0])
        np.testing.assert_allclose(batch.y[:, 0], got.y, rtol=1e-12, atol=1e-12)


def test_each_agent_blows_up_at_its_own_limit():
    # agent 0 (entropy, limit 1e12) gains 1e7 per unit time, past agent 1's
    # euclidean limit of 2.25e6; only agent 1's own payoffs count against it
    game = NetworkGame((2, 2), {(0, 1): 1e7 * MP_MATRIX})
    regs = (Regularizer("entropy"), Regularizer("euclidean"))
    y0 = (np.zeros(2), np.array([0.3, -0.2]))
    for scheme in ("euler", "rk4"):
        config = IntegratorConfig(scheme, 0.1, 2.0, 5)
        got = simulate(game, regs, y0, config)
        with frozen_float_path():
            _assert_same_run(got, simulate(game, regs, y0, config))
        assert not got.metadata["diagnostics"]["truncated"] and got.t[-1] == 2.0
        assert 2.25e6 < np.abs(got.y[-1, :2]).max() < 1e12


def test_non_finite_start_still_raises():
    game, regs, y0 = mp_start("entropy")
    bad = (np.array([np.nan, 0.0]), y0[1])
    for start in (bad, tuple(v[None] for v in bad)):
        for scheme in ("euler", "rk4", "symplectic_leapfrog"):
            with pytest.raises(ValueError, match="choice map requires finite payoff vector"):
                simulate(game, regs, start, IntegratorConfig(scheme, 0.05, 0.5, 1))


@pytest.mark.parametrize("stride", [1, 3])
def test_single_runs_map_only_their_start_through_block_choice_map(monkeypatch, stride):
    # each call of the generated loop hands back the x of the snapshot it
    # ends at, so BlockChoiceMap maps a single run's start and, where a run
    # truncates off the stride, its last finite y, and nothing else; 20
    # steps at stride 3 end on a short interval.  The overflowing rk4 run
    # fails at step 3, off stride 3.  No energy is read: its conjugates map
    # a product regularizer's blocks through BlockChoiceMap too
    real, calls = BlockChoiceMap.__call__, []
    monkeypatch.setattr(BlockChoiceMap, "__call__", lambda self, y: calls.append(y) or real(self, y))
    runs = []
    for family in ("zero_sum", "affine", "bipartite_fold"):
        game, regs, y0 = _random_case(family, [2, 3, 2], 4, None)
        runs += [(game, regs, y0, IntegratorConfig(scheme, 0.05, 1.0, stride)) for scheme in SCHEMES]
    game, regs, y0 = _overflowing_stage_game()
    runs += [(game, regs, y0, IntegratorConfig(scheme, 8.0, 48.0, stride)) for scheme in ("euler", "rk4")]
    truncations = 0
    for game, regs, y0, config in runs:
        calls.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(game, regs, y0, config, energy="none")
        diagnostics = traj.metadata["diagnostics"]
        off_stride = diagnostics["truncated"] and (diagnostics["blow_up_step"] - 1) % stride != 0
        truncations += off_stride
        assert len(calls) == 1 + off_stride, (config, diagnostics)
        block = BlockChoiceMap(regs)
        for y, x in zip(traj.y, traj.x):
            assert np.array_equal(x.view(np.int64), real(block, y).view(np.int64))
    assert truncations == (stride == 3)


# ---------------------------------------------------------------------------
# the generated single-trajectory loops, by content


def test_equal_content_games_write_no_second_source(monkeypatch):
    game, regs, y0 = _random_case("affine", [2, 3, 2], 7, None)
    config = IntegratorConfig("rk4", 0.05, 0.5, 2)
    first = simulate(game, regs, y0, config)
    twin = replace(game, payoffs={e: a.copy() for e, a in game.payoffs.items()},
                   b={e: v.copy() for e, v in game.b.items()})
    twin_regs = tuple(replace(r) for r in regs)
    writes, real = [], dynamics._loop_source
    monkeypatch.setattr(dynamics, "_loop_source", lambda *args: writes.append(args) or real(*args))
    before = dynamics._loop.cache_info()
    second = simulate(twin, twin_regs, tuple(v.copy() for v in y0), config)
    after = dynamics._loop.cache_info()
    assert not writes and (after.hits, after.misses) == (before.hits + 1, before.misses)
    _assert_same_run(second, first)


def test_loops_are_keyed_by_bits_and_shape():
    def loop(game, scheme="euler"):
        regs = default_regularizers(game, "euclidean")
        return _Flow(game, regs, [np.zeros(k) for k in game.strategy_counts]).advance(scheme)

    a = np.array([[1.0, 0.0], [-1.0, 2.0]])
    for zero in (0.0, np.nan):  # a zero's sign, a nan's sign
        flipped = a.copy()
        flipped[0, 1] = -zero
        a[0, 1] = zero
        plain, signed = (NetworkGame((2, 2), {(0, 1): m, (1, 0): -m.T}) for m in (a, flipped))
        assert a.tobytes() != flipped.tobytes() and loop(plain) is not loop(signed)
    m, n = np.arange(6.0).reshape(2, 3), -np.arange(6.0).reshape(3, 2)
    wide = NetworkGame((2, 3), {(0, 1): m, (1, 0): n}, sigma=None)
    tall = NetworkGame((3, 2), {(0, 1): m.reshape(3, 2), (1, 0): n.reshape(2, 3)}, sigma=None)
    assert loop(wide) is not loop(tall)
    for game in (wide, tall):  # the same bytes in other shapes: each loop steps its own game
        regs = default_regularizers(game, "euclidean")
        y0 = tuple(0.3 * np.arange(k, dtype=float) for k in game.strategy_counts)
        config = IntegratorConfig("euler", 0.05, 0.5, 3)
        got = simulate(game, regs, y0, config, energy="none")
        with frozen_float_path():
            _assert_same_run(got, simulate(game, regs, y0, config, energy="none"))


@pytest.mark.parametrize("extra", ["wt = 0.0", "z = step"])
def test_colliding_fragment_names_are_refused(monkeypatch, extra):
    # a temporary that overwrites the stage weight, a read of the loop's step
    game, regs, y0 = mp_start("euclidean")
    real = dynamics.choice_lines
    monkeypatch.setattr(dynamics, "choice_lines", lambda *args: real(*args) + [extra])
    monkeypatch.setattr(dynamics, "_loop", dynamics._loop.__wrapped__)  # past the cache
    with pytest.raises(AssertionError, match="generated names collide"):
        _Flow(game, regs, y0).advance("rk4")


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", ["zero_sum", "affine"])
def test_kernels_write_into_no_argument(scheme, family):
    # y, X and a handed x stay the caller's: a record, or a reference that
    # keeps each step's arrays, still holds them after the step.  With a
    # drift, a kick carried from another time is recomputed
    game, regs, y0 = _random_case(family, [2, 3, 2], 5, 6)
    flow = _Flow(game, regs, y0)
    assert (flow.op.drift is not None) == (family == "affine")
    flow.y0 = np.ascontiguousarray(flow.y0.T)
    rng = np.random.default_rng(2)
    y, X = flow.y0 + 0.1 * rng.normal(size=flow.y0.shape), 0.1 * rng.normal(size=flow.y0.shape)
    kernel, force, eta = dynamics.KERNELS[scheme], None, 0.05
    for t, hand in ((0.0, True), (eta, False), (np.nextafter(eta, 1.0), True), (2 * eta, True)):
        x = flow.choice(y) if hand else None
        kept = [a.copy() for a in (y, X, x) if a is not None]
        y_next, X_next, force = kernel(flow, t, y, X, x, force, eta)
        for a, b in zip((a for a in (y, X, x) if a is not None), kept):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        outputs = [y_next, X_next] + ([] if force is None else [force[1]])
        assert not any(np.shares_memory(a, b) for a in outputs for b in (y, X, x) if b is not None)
        y, X = y_next, X_next


def _motions_only_cases():
    """(game, regs, single start, config) of plain runs and of runs that truncate off the stride."""
    game, regs, y0 = _random_case("zero_sum", [2, 3, 2], 11, None)
    for scheme in SCHEMES:
        yield game, regs, y0, IntegratorConfig(scheme, 0.05, 1.0, 3)
    # agent 1's payoff grows by 7e10 a step: |y| passes 1e12 at step 15 under Euler
    a = 7e10 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
    for scheme in SCHEMES:
        yield game, default_regularizers(game, "entropy"), (np.array([3.0, -3.0]), np.array([2.0, 1.0])), \
            IntegratorConfig(scheme, 1.0, 30.0, 4)
    # a non-finite third stage point (see _overflowing_stage_game)
    game, regs, y0 = _overflowing_stage_game()
    for scheme in ("euler", "rk4"):
        yield game, regs, y0, IntegratorConfig(scheme, 8.0, 48.0, 2)


MOTIONS_ONLY_CASES = list(_motions_only_cases())


@pytest.mark.parametrize("case", range(len(MOTIONS_ONLY_CASES)))
@pytest.mark.parametrize("batched", [False, True])
def test_motions_only_records_the_same_motions(case, batched):
    game, regs, y0, config = MOTIONS_ONLY_CASES[case]
    if batched:  # the start and a copy pushed off it
        y0 = tuple(np.stack([v, v + 0.25]) for v in y0)
    with np.errstate(over="ignore", invalid="ignore"):
        full = simulate(game, regs, y0, config, energy="none")
        lean = simulate(game, regs, y0, config, energy="none", motions_only=True)
    assert lean.X is None and lean.x is None and full.x is not None
    for a, b in ((lean.t, full.t), (lean.y, full.y)):
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
    assert lean.metadata["diagnostics"] == full.metadata["diagnostics"]
    assert full.metadata["diagnostics"]["truncated"] == (case >= len(SCHEMES))
    assert np.isnan(lean.energy).all() and lean.fenchel is None and lean.bregman is None
    assert len(lean.states) == len(full.states) == len(full.t)
    with pytest.raises(ValueError, match="motions_only=True"):
        lean.states[-1]
    if not batched:
        with pytest.raises(ValueError, match="motions_only=True"):
            lean.strategy_matrix()


def test_motions_only_takes_no_reading():
    game, regs, y0 = mp_start("entropy")
    config = IntegratorConfig("rk4", 0.05, 0.5, 1)
    profile = [np.full(2, 0.5), np.full(2, 0.5)]
    for kwargs in ({}, {"energy": "auto"}, {"energy": "network"}, {"energy": "none", "ref": profile}):
        with pytest.raises(ValueError, match='motions_only=True records no X or x to read'):
            simulate(game, regs, y0, config, motions_only=True, **kwargs)
