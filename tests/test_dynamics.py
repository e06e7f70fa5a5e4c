"""Vector field, steppers, simulation loop, and trajectory files."""

import json
import platform
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgame import (
    GeneralizedGame,
    IntegratorConfig,
    NetworkGame,
    ProductRegularizer,
    Regularizer,
    choice_map,
    conjugate_value,
    default_regularizers,
    initial_state,
    read_trajectory_csv,
    reconstructed_motion,
    reduce_bipartite_to_two_agent,
    simulate,
    step_euler,
    step_rk4,
    step_symplectic,
    vector_field,
    write_trajectory_csv,
    write_trajectory_metadata,
)
from hamgame.cli import main

from conftest import (
    MP_MATRIX,
    harmonic_orbit,
    mp_start,
    run,
    triangle_zero_sum,
)


def mp_center_state(kind="euclidean"):
    game, regs, y0 = mp_start(kind, x1=(0.5, 0.5), x2=(0.5, 0.5))
    return game, regs, initial_state(regs, y0)


class TestVectorField:
    def test_center_is_fixed_point_of_motion(self):
        game, regs, state = mp_center_state()
        dX, dy = vector_field(state, game, regs)
        np.testing.assert_allclose(dy[0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(dy[1], [0.0, 0.0], atol=1e-15)

    def test_pure_opponent_column(self):
        game, regs, _ = mp_center_state()
        y0 = (np.array([0.0, 0.0]), np.array([50.0, -50.0]))  # x2 -> (1, 0)
        state = initial_state(regs, y0)
        _, dy = vector_field(state, game, regs)
        np.testing.assert_allclose(dy[0], MP_MATRIX[:, 0], atol=1e-15)

    def test_zero_sum_identity(self, rng):
        game = triangle_zero_sum(centered=False)
        regs = default_regularizers(game, "entropy")
        for _ in range(20):
            y0 = tuple(rng.normal(size=k) for k in game.strategy_counts)
            state = initial_state(regs, y0)
            _, dy = vector_field(state, game, regs)
            total = sum(float(x @ g) for x, g in zip(state.x, dy))
            assert total == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_finite(self):
        game, regs, state = mp_center_state()
        bad = state.__class__(
            state.t, (np.array([np.inf, 0.0]), state.y[1]), state.X, state.x, state.y0
        )
        with pytest.raises(ValueError, match="non-finite"):
            vector_field(bad, game, regs)


class TestEuler:
    def test_fixed_point_moves_only_time(self):
        game, regs, state = mp_center_state()
        out = step_euler(state, game, regs, 0.1)
        assert out.t == pytest.approx(0.1)
        np.testing.assert_array_equal(out.y[0], state.y[0])
        np.testing.assert_allclose(out.x[0], state.x[0], atol=1e-15)

    def test_energy_never_decreases_one_step(self, rng):
        game, regs, _ = mp_center_state()
        for _ in range(25):
            y0 = tuple(rng.normal(size=2) for _ in range(2))
            state = initial_state(regs, y0)
            before = sum(conjugate_value(r, v) for r, v in zip(regs, state.y))
            after_state = step_euler(state, game, regs, 0.1)
            after = sum(conjugate_value(r, v) for r, v in zip(regs, after_state.y))
            assert after >= before - 1e-12

    def test_first_order_consistency(self):
        game, regs, y0 = mp_start("entropy", x1=(0.55, 0.45), x2=(0.45, 0.55))
        state = initial_state(regs, y0)

        def local_error(eta):
            coarse = step_euler(state, game, regs, eta)
            fine = state
            for _ in range(100):  # rk4 truth at eta/100: error negligible
                fine = step_rk4(fine, game, regs, eta / 100)
            return max(
                float(np.max(np.abs(a - b))) for a, b in zip(coarse.y, fine.y)
            )

        e1, e2 = local_error(0.1), local_error(0.05)
        # local error of a first-order step is O(eta^2): quartering under halving
        assert 3.0 <= e1 / e2 <= 5.0


class TestRk4:
    def test_fixed_point(self):
        game, regs, state = mp_center_state()
        out = step_rk4(state, game, regs, 0.1)
        np.testing.assert_allclose(out.y[0], state.y[0], atol=1e-15)

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
        game, regs, state = mp_center_state()
        out = step_symplectic(state, game, regs, 0.1)
        np.testing.assert_allclose(out.y[0], state.y[0], atol=1e-15)

    def test_reversibility(self):
        game, regs, y0 = mp_start("entropy", x1=(0.62, 0.38), x2=(0.45, 0.55))
        state = initial_state(regs, y0)
        for _ in range(5):
            state = step_symplectic(state, game, regs, 0.05)
        back = state
        for _ in range(5):
            back = step_symplectic(back, game, regs, -0.05)
        for v, v0 in zip(back.y, initial_state(regs, y0).y):
            np.testing.assert_allclose(v, v0, atol=1e-12)
        for p in back.X:
            np.testing.assert_allclose(p, np.zeros_like(p), atol=1e-12)

    def test_rejects_untagged_game(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): np.zeros((2, 2))})
        regs = default_regularizers(game, "entropy")
        state = initial_state(regs, (np.zeros(2), np.zeros(2)))
        with pytest.raises(ValueError, match="no Hamiltonian structure"):
            step_symplectic(state, game, regs, 0.1)

    def test_bounded_energy_error_while_rk4_drifts(self):
        game, regs, y0 = mp_start("euclidean")

        def drift_curve(scheme, eta):
            traj = run(game, regs, y0, scheme=scheme, eta=eta, horizon=100.0, stride=50)
            h = traj.energy
            return np.abs(h - h[0]), traj.times

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
        state = initial_state(regs, y0)
        eta = 1e-3
        outs = [
            step(state, game, regs, eta)
            for step in (step_euler, step_rk4, step_symplectic)
        ]
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
            z = reconstructed_motion(game, regs, s.y0, s.X, s.t)
            return max(float(np.max(np.abs(a - b))) for a, b in zip(s.y, z))

        # rk4 and euler satisfy the relation stage by stage: rounding only
        assert residual("rk4", 1e-2) <= 1e-12
        assert residual("euler", 1e-2) <= 1e-12
        # leapfrog staggers the two halves: residual shrinks at second order
        r1, r2 = residual("leapfrog", 0.02), residual("leapfrog", 0.01)
        assert r1 <= 1e-2
        assert 3.0 <= r1 / r2 <= 6.0

    def test_derived_strategies_recomputed_exactly(self):
        from hamgame import choice_map

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
        # at scale 1e-6 the projection works on y / 2e-6, which passes 2^52
        # at |y| = 9.007e9, far below BLOW_UP_LIMIT; a little further its
        # output leaves the simplex and the energy reading would raise
        a = 1e12 * MP_MATRIX
        game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
        regs = tuple(Regularizer("euclidean", dim=2, scale=1e-6) for _ in range(2))
        y0 = (np.array([3e-6, -3e-6]), np.array([2e-6, 1e-6]))
        for lead in ((), (3,)):
            start = tuple(np.broadcast_to(v, lead + v.shape) for v in y0)
            traj = simulate(game, regs, start, IntegratorConfig("euler", 1e-3, 0.5, 1))
            diag = traj.metadata["diagnostics"]
            assert diag["truncated"] and 1 < diag["blow_up_step"] < 500
            assert diag["reason"] == (
                "agent 1: |y| exceeded 9.0072e+09, past the precision of its euclidean projection"
            )
            assert np.all(np.isfinite(traj.energy))
            assert np.abs(traj.stacked("y")).max() <= 2.0**52 * 2e-6

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
        np.testing.assert_array_equal(data[:, 0], traj.times)  # exact round trip
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
            assert meta["schema_version"] == 2
            assert meta["python_version"] == platform.python_version()
            assert meta["numpy_version"] == np.__version__
            assert set(meta["timing"]) == {"step_s", "instruments_s", "io_s", "steps_per_s"}
            assert all(v >= 0.0 for v in meta["timing"].values())
        game_file = Path(__file__).resolve().parent.parent / "games" / "matching_pennies.json"
        argv = ["simulate", "--game", str(game_file), "--scheme", "rk4", "--eta", "0.1",
                "--horizon", "1.0", "--out", str(tmp_path)]
        assert main(argv) == 0  # the command fills in the time of its CSV write
        meta = json.loads((tmp_path / "matching_pennies_rk4.meta.json").read_text())
        assert meta["schema_version"] == 2 and meta["timing"]["io_s"] > 0.0


class TestIntegratorConfig:
    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError, match="step size"):
            IntegratorConfig("rk4", 0.0, 1.0, 1)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            IntegratorConfig("verlet", 0.1, 1.0, 1)

    def test_leapfrog_alias(self):
        assert IntegratorConfig("leapfrog", 0.1, 1.0, 1).scheme == "symplectic_leapfrog"


# ---------------------------------------------------------------------------
# Differential test: simulate integrates on flat (batch..., D) arrays.  The
# reference below is a frozen copy of the earlier per-agent tuple steppers,
# choice maps included, so it shares no arithmetic with the code under test.


def _ref_project_simplex(v):
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    css = np.cumsum(u, axis=-1)
    k = np.arange(1, v.shape[-1] + 1)
    rho = np.sum(u > (css - 1.0) / k, axis=-1, keepdims=True)
    tau = (np.take_along_axis(css, rho - 1, axis=-1) - 1.0) / rho
    return np.maximum(v - tau, 0.0)


def _ref_choice(reg, y):
    if isinstance(reg, ProductRegularizer):
        return np.concatenate([_ref_choice(b, y[..., s]) for b, s in reg.slices()], axis=-1)
    u = y / reg.scale
    if reg.kind == "entropy":
        if reg.domain == "simplex":
            e = np.exp(u - u.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)
        return 0.5 * (1.0 + np.tanh(0.5 * u))
    if reg.domain == "simplex":
        return _ref_project_simplex(u / 2.0)
    return np.clip(u / 4.0 + 0.5, 0.0, 1.0)


def _ref_field(game, xs):
    out = []
    for i in range(game.n):
        total = np.zeros_like(xs[i])
        for j in range(game.n):
            if j == i:
                continue
            a = game.payoffs.get((i, j))
            if a is not None:
                total += xs[j] @ a.T
            if isinstance(game, GeneralizedGame):
                bv = game.b.get((i, j))
                if bv is not None:
                    total += bv
        out.append(total)
    return out


def _ref_motion(game, y0, X, t):
    out = []
    for j in range(game.n):
        z = y0[j]
        for i in range(game.n):
            if i == j:
                continue
            a = game.payoffs.get((j, i))
            if a is not None:
                z = z + X[i] @ a.T
            if isinstance(game, GeneralizedGame):
                bv = game.b.get((j, i))
                if bv is not None:
                    z = z + bv * t
        out.append(z)
    return out


def _ref_step(scheme, game, regs, state, eta):
    t, y, X, x, y0 = state
    cmap = lambda ys: [_ref_choice(r, v) for r, v in zip(regs, ys)]  # noqa: E731
    if scheme == "euler":
        dy = _ref_field(game, x)
        y = [v + eta * g for v, g in zip(y, dy)]
        X = [p + eta * g for p, g in zip(X, x)]
    elif scheme == "rk4":
        def stage(ys):
            xs = cmap(ys)
            return xs, _ref_field(game, xs)

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
        f0 = _ref_field(game, cmap(_ref_motion(game, y0, X, t)))
        y_half = [v + half * g for v, g in zip(y, f0)]
        X = [p + eta * g for p, g in zip(X, cmap(y_half))]
        f1 = _ref_field(game, cmap(_ref_motion(game, y0, X, t + eta)))
        y = [v + half * g for v, g in zip(y_half, f1)]
    return t + eta, y, X, cmap(y), y0


def _random_case(family, counts, seed, batch):
    rng = np.random.default_rng(seed)
    n = len(counts)
    kinds = rng.choice(["entropy", "euclidean"], size=n)
    scales = rng.choice([1.0, 0.5, 2.0], size=n)
    if family == "bipartite_fold":
        side = [i % 2 for i in range(n)]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if side[i] != side[j]]
    else:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in edges if rng.uniform() < 0.7] or edges[:1]
    sigma = 1 if family == "coordination" else -1
    if family in ("affine", "bipartite_fold"):
        sigma = int(rng.choice([-1, 1]))
    payoffs = {}
    for i, j in edges:
        a = rng.normal(size=(counts[i], counts[j]))
        payoffs[(i, j)] = a
        payoffs[(j, i)] = sigma * a.T
    if family == "affine":
        spaces = tuple(rng.choice(["simplex", "box"], size=n))
        b = {e: rng.normal(size=counts[e[0]]) for e in payoffs if rng.uniform() < 0.7}
        game = GeneralizedGame(tuple(counts), payoffs, sigma=sigma, b=b, spaces=spaces)
    else:
        spaces = ("simplex",) * n
        game = NetworkGame(tuple(counts), payoffs, sigma=sigma)
    regs = tuple(
        Regularizer(str(kd), domain=str(sp), dim=k, scale=float(sc))
        for kd, sp, k, sc in zip(kinds, spaces, counts, scales)
    )
    lead = () if batch is None else (batch,)
    y0 = tuple(0.7 * rng.normal(size=lead + (k,)) for k in counts)
    if family == "bipartite_fold":
        partition = tuple([i for i in range(n) if side[i] == s] for s in (0, 1))
        red = reduce_bipartite_to_two_agent(game, partition)
        return red.game, red.meta_regularizers(regs), red.meta_vectors(y0)
    return game, regs, y0


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
    state = (0.0, y0, [np.zeros_like(v) for v in y0], x0, y0)
    expected = [state]
    for i in range(1, steps + 1):
        state = _ref_step(scheme, game, regs, state, eta)
        state = (i * eta,) + state[1:]  # simulate keeps time as i * eta, not a running sum
        if i % stride == 0 or i == steps:
            expected.append(state)

    assert len(traj.states) == len(expected)
    for got, (t, y, X, x, _) in zip(traj.states, expected):
        assert got.t == t
        for a, b in zip(got.y + got.X + got.x, tuple(y) + tuple(X) + tuple(x)):
            assert a.shape == b.shape
            if game.n == 2:  # one neighbour per agent: same operations, same bits
                np.testing.assert_array_equal(a, b)
            else:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
