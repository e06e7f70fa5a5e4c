"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from hamgame import (
    IntegratorConfig,
    MixedProfile,
    Regularizer,
    choice_map,
    conjugate_value,
    default_regularizers,
    h_value,
    make_reference,
    monotone_energy_check,
    recurrence_report,
    reduce_2x2_to_generalized,
    reduce_bipartite_to_two_agent,
    sample_payoff_ball,
    simulate,
    solve_2x2_fully_mixed_nash,
    verify_hamiltonian_structure,
    volume_ratio,
)
from hamgame.cli import main as cli_main
from hamgame.dynamics import PayoffOperator

from conftest import (
    consistent_point,
    coordination_identity,
    coordination_triangle,
    double_centered,
    energy_rows,
    four_cycle_zero_sum,
    grid_argmax,
    interior_start,
    mp_start,
    run,
    star_zero_sum,
    triangle_zero_sum,
    uniform_profile,
)


def report(criterion, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion} ({name}): {status} {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


class Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def drift_of(values):
    values = np.asarray(values, dtype=float)
    return float(np.max(np.abs(values - values[0])))


def relative_drift(values):
    values = np.asarray(values, dtype=float)
    return drift_of(values) / max(1.0, float(abs(values[0])))


def test_criterion_1_table_reproduction():
    """Phase portrait and distance law of euclidean Matching Pennies."""
    with Timer(5.0) as timer:
        game, regs, y0 = mp_start("euclidean")
        traj = run(
            game, regs, y0, scheme="rk4", eta=1e-3, horizon=4 * np.pi, stride=1,
            energy="none",  # this criterion reads strategies only
        )
        xs = traj.strategy_matrix()
        d = 0.5 * (xs[:, 0] - 0.5) ** 2 + 0.5 * (xs[:, 2] - 0.5) ** 2
        law_dev = float(np.max(np.abs(d - d[0])))
        events = recurrence_report(traj, epsilon=1e-4)
        ok_law = law_dev <= 1e-7
        ok_return = bool(events) and abs(events[0].t - 2 * np.pi) <= 0.01
        ok_close = bool(events) and events[0].distance <= 1e-4
    report(
        1,
        "distance law",
        ok_law,
        f"max deviation of (x1-1/2)^2/2 + (x2-1/2)^2/2: {law_dev:.3e} (tol 1e-7)",
    )
    report(
        1,
        "orbit closes",
        ok_return and ok_close,
        f"first return t={events[0].t:.4f} (2pi +- 0.01), distance {events[0].distance:.2e}",
    )
    report(1, "runtime", timer.elapsed < 5.0, f"{timer.elapsed:.2f}s < 5s")


def _energy_cases():
    """(label, kind) -> (game, regs, y0, energy variant)."""
    rng = np.random.default_rng(12)

    def perturbed_uniform(game, regs, scale=0.3):
        y0 = interior_start(game, regs, uniform_profile(game))
        return tuple(v + scale * rng.normal(size=v.shape) for v in y0)

    cases = {}
    for kind in ("entropy", "euclidean"):
        game, regs, y0 = mp_start(kind)
        cases[("two-agent zero-sum", kind)] = (game, regs, y0, "two_agent")

        coord = coordination_identity()
        cregs = default_regularizers(coord, kind)
        offset = 0.05 if kind == "entropy" else 1e-4
        cy0 = interior_start(
            coord, cregs, (np.array([0.5 + offset, 0.5 - offset]),) * 2
        )
        cases[("two-agent coordination", kind)] = (coord, cregs, cy0, "two_agent")

        cycle = four_cycle_zero_sum()
        kregs = default_regularizers(cycle, kind)
        cases[("bipartite four-cycle zero-sum", kind)] = (
            cycle, kregs, perturbed_uniform(cycle, kregs), "bipartite"
        )

        tri = triangle_zero_sum()
        tregs = default_regularizers(tri, kind)
        cases[("triangle zero-sum", kind)] = (tri, tregs, perturbed_uniform(tri, tregs), "network")

        mp, mregs, my0 = mp_start(kind)
        red = reduce_2x2_to_generalized(mp, mregs, my0)
        cases[("reduced generalized 2x2", kind)] = (red.game, red.regularizers, red.y0, "generalized")
    return cases


def test_criterion_2_energy_invariance():
    """Every energy variant is constant under rk4, with fourth-order residue."""
    with Timer(60.0) as timer:
        for (label, kind), (game, regs, y0, variant) in _energy_cases().items():
            def series(eta, horizon=10.0):
                traj = run(game, regs, y0, scheme="rk4", eta=eta, horizon=horizon, stride=100)
                return energy_rows(traj, game, regs, variant)

            rel = relative_drift(series(1e-3))
            report(
                2,
                f"{label} / {kind}",
                rel <= 1e-6,
                f"relative drift {rel:.3e} (tol 1e-6)",
            )
            # halving the step must cut the drift at least eightfold; when the
            # drift sits at rounding noise, coarsen until the ratio is
            # meaningful (conservation better than required passes trivially)
            eta = 1e-3
            ratio_detail = "conserved to rounding at every probed step"
            ratio_ok = True
            while eta <= 0.064:
                base = drift_of(series(eta, horizon=5.0))
                if base >= 1e-12:
                    halved = drift_of(series(eta / 2, horizon=5.0))
                    ratio = base / max(halved, 1e-300)
                    ratio_ok = ratio >= 8.0
                    ratio_detail = f"drift({eta:g})/drift({eta / 2:g}) = {ratio:.1f} (>= 8)"
                    break
                eta *= 2
            report(2, f"{label} / {kind} order", ratio_ok, ratio_detail)
    report(2, "runtime", timer.elapsed < 60.0, f"{timer.elapsed:.2f}s < 60s")


def test_criterion_3_hamiltonian_structure():
    """Finite-difference gradients of H reproduce the vector field."""
    with Timer(30.0) as timer:
        rng = np.random.default_rng(21)

        def random_point(game, regs, euclidean_margin=None):
            while True:
                y0 = tuple(0.4 * rng.normal(size=k) for k in game.strategy_counts)
                t = float(rng.uniform(0.1, 1.0))
                X = tuple(t * rng.dirichlet(np.ones(k)) for k in game.strategy_counts)
                y, X, y0 = consistent_point(game, y0, X, t)
                if euclidean_margin is not None:
                    xs = [choice_map(r, y[s]) for r, s in zip(regs, PayoffOperator(game).slices)]
                    margin = min(float(v.min()) for v in xs)
                    if margin < euclidean_margin or any(
                        float(v.max()) > 1.0 - euclidean_margin
                        for v in xs
                        if regs[0].domain == "box"
                    ):
                        continue
                return y0, X, t

        classes = []
        mp, mpregs, _ = mp_start("entropy")
        classes.append(("two-agent zero-sum (entropy)", mp, mpregs, None))
        mp_e, mpregs_e, _ = mp_start("euclidean")
        classes.append(("two-agent zero-sum (euclidean)", mp_e, mpregs_e, 0.05))
        coord = coordination_identity()
        classes.append(
            ("two-agent coordination", coord, default_regularizers(coord, "entropy"), None)
        )
        cycle = four_cycle_zero_sum()
        classes.append(
            ("bipartite four-cycle", cycle, default_regularizers(cycle, "entropy"), None)
        )
        tri = triangle_zero_sum(centered=False)
        classes.append(("triangle zero-sum", tri, default_regularizers(tri, "entropy"), None))
        red = reduce_2x2_to_generalized(mp, mpregs, (np.zeros(2), np.zeros(2)))
        classes.append(("reduced generalized 2x2", red.game, red.regularizers, None))

        for label, game, regs, margin in classes:
            worst = 0.0
            for _ in range(100):
                rep = verify_hamiltonian_structure(game, regs, *random_point(game, regs, margin))
                worst = max(worst, rep.max_residual)
            report(
                3,
                label,
                worst <= 1e-6,
                f"max residual over 100 states: {worst:.3e} (tol 1e-6)",
            )
    report(3, "runtime", timer.elapsed < 30.0, f"{timer.elapsed:.2f}s < 30s")


def test_criterion_4_coupling_invariance():
    """Fenchel coupling, payoff inner product, and KL stay constant."""
    with Timer(30.0) as timer:
        runs = []
        for kind in ("euclidean", "entropy"):
            game, regs, y0 = mp_start(kind)
            ref = make_reference(game, solve_2x2_fully_mixed_nash(game))
            runs.append((f"matching pennies / {kind}", game, regs, y0, ref))
        rng = np.random.default_rng(9)
        for kind in ("entropy", "euclidean"):
            tri = triangle_zero_sum()
            tregs = default_regularizers(tri, kind)
            ty0 = tuple(
                a + 0.3 * rng.normal(size=a.shape)
                for a in interior_start(tri, tregs, uniform_profile(tri))
            )
            ref = make_reference(tri, MixedProfile(uniform_profile(tri)))
            runs.append((f"triangle uniform / {kind}", tri, tregs, ty0, ref))

        for label, game, regs, y0, ref in runs:
            traj = run(game, regs, y0, scheme="rk4", eta=1e-3, horizon=10.0, stride=100, ref=ref)
            f_dev = drift_of(traj.fenchel)
            h = energy_rows(traj, game, regs, "network")
            gap_dev = drift_of(traj.fenchel - 0.5 * h)
            inner = np.array(
                [float(sum(yv @ xr for yv, xr in zip(s.y, ref))) for s in traj.states]
            )
            inner_dev = drift_of(inner)
            report(4, f"{label}: coupling", f_dev <= 1e-7, f"max |F - F0| {f_dev:.3e} (tol 1e-7)")
            report(
                4,
                f"{label}: coupling minus half energy",
                gap_dev <= 1e-8,
                f"max drift {gap_dev:.3e} (tol 1e-8)",
            )
            report(
                4,
                f"{label}: payoff inner product",
                inner_dev <= 1e-8,
                f"max drift {inner_dev:.3e} (tol 1e-8)",
            )
            if "entropy" in label:
                d_dev = drift_of(traj.bregman)
                report(
                    4,
                    f"{label}: divergence",
                    d_dev <= 1e-7,
                    f"max KL drift {d_dev:.3e} (tol 1e-7)",
                )
    report(4, "runtime", timer.elapsed < 30.0, f"{timer.elapsed:.2f}s < 30s")


def test_criterion_5_discrete_divergence():
    """Euler pumps energy monotonically and drives strategies outward."""
    with Timer(60.0) as timer:
        rng = np.random.default_rng(33)
        worst_h_drop = 0.0
        worst_f_drop = 0.0
        for index in range(10):
            n = int(rng.integers(2, 4))
            counts = tuple(int(rng.integers(2, 4)) for _ in range(n))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            payoffs = {}
            for i, j in pairs:
                a = double_centered(rng, (counts[i], counts[j]))
                payoffs[(i, j)] = a
                payoffs[(j, i)] = -a.T
            from hamgame import NetworkGame

            game = NetworkGame(counts, payoffs, sigma=-1)
            kind = "entropy" if index % 2 == 0 else "euclidean"
            regs = default_regularizers(game, kind)
            ref = MixedProfile(uniform_profile(game))
            seeds = tuple(
                np.stack([rng.normal(size=k) for _ in range(10)]) for k in counts
            )
            for eta in (0.01, 0.1):
                config = IntegratorConfig("euler", eta, 10.0, 1)
                traj = simulate(game, regs, seeds, config, ref=ref)
                mono = monotone_energy_check(traj, game, regs)
                worst_h_drop = max(worst_h_drop, mono.max_decrease)
                f_diffs = np.diff(traj.fenchel, axis=0)
                worst_f_drop = max(worst_f_drop, float(max(0.0, -np.min(f_diffs))))
        report(
            5,
            "energy non-decreasing",
            worst_h_drop <= 1e-10,
            f"max single-step decrease {worst_h_drop:.3e} over 10 games x 10 seeds x 2 steps",
        )
        report(
            5,
            "coupling non-decreasing",
            worst_f_drop <= 1e-10,
            f"max single-step decrease {worst_f_drop:.3e}",
        )

        game, regs, y0 = mp_start("euclidean")
        euler = run(game, regs, y0, scheme="euler", eta=0.1, horizon=100.0, stride=1)
        euler_min = float(np.min(euler.strategy_matrix()))
        rk4 = run(game, regs, y0, scheme="rk4", eta=0.1, horizon=100.0, stride=1)
        rk4_min = float(np.min(rk4.strategy_matrix()))
        report(
            5,
            "boundary approach",
            euler_min < 0.05 and rk4_min > 0.2,
            f"euler min coordinate {euler_min:.3f} < 0.05, rk4 {rk4_min:.3f} > 0.2",
        )
    report(5, "runtime", timer.elapsed < 60.0, f"{timer.elapsed:.2f}s < 60s")


def test_criterion_6_reduction_equivalence():
    """Folded and scalarized games reproduce the original strategies."""
    with Timer(30.0) as timer:
        rng = np.random.default_rng(8)
        for kind in ("entropy", "euclidean"):
            for builder in (star_zero_sum, four_cycle_zero_sum):
                game = builder()
                red = reduce_bipartite_to_two_agent(game)
                regs = default_regularizers(game, kind)
                y0 = tuple(0.3 * rng.normal(size=k) for k in game.strategy_counts)
                a = run(game, regs, y0, scheme="rk4", eta=1e-2, horizon=10.0, stride=10)
                b = run(
                    red.game,
                    red.meta_regularizers(regs),
                    red.meta_vectors(y0),
                    scheme="rk4",
                    eta=1e-2,
                    horizon=10.0,
                    stride=10,
                )
                worst = 0.0
                for s, ms in zip(a.states, b.states):
                    for side in (0, 1):
                        for agent, xv in red.split(side, ms.x[side]).items():
                            worst = max(worst, float(np.max(np.abs(xv - s.x[agent]))))
                report(
                    6,
                    f"bipartite fold {builder.__name__} / {kind}",
                    worst <= 1e-9,
                    f"max per-coordinate gap {worst:.3e} (tol 1e-9)",
                )

            game, regs, y0 = mp_start(kind)
            red = reduce_2x2_to_generalized(game, regs, y0)
            a = run(game, regs, y0, scheme="rk4", eta=1e-2, horizon=10.0, stride=10)
            b = run(red.game, red.regularizers, red.y0, scheme="rk4", eta=1e-2, horizon=10.0, stride=10)
            worst = max(
                max(
                    abs(float(rs.x[0][0]) - float(s.x[0][0])),
                    abs(float(rs.x[1][0]) - float(s.x[1][0])),
                )
                for s, rs in zip(a.states, b.states)
            )
            report(
                6,
                f"scalar 2x2 reduction / {kind}",
                worst <= 1e-9,
                f"max per-coordinate gap {worst:.3e} (tol 1e-9)",
            )
    report(6, "runtime", timer.elapsed < 30.0, f"{timer.elapsed:.2f}s < 30s")


def test_criterion_7_volume_preservation():
    """Conservative schemes keep cloud volume; Euler inflates it."""
    with Timer(120.0) as timer:
        game, regs, y0 = mp_start("euclidean")
        red = reduce_2x2_to_generalized(game, regs, y0)
        cloud = sample_payoff_ball(red.y0, 0.01, 1000, seed=17)
        ratios = {}
        for scheme in ("rk4", "symplectic_leapfrog"):
            config = IntegratorConfig(scheme, 1e-3, 2 * np.pi, 1000)
            ratios[scheme] = volume_ratio(red.game, red.regularizers, cloud, config).ratio
            report(
                7,
                f"{scheme} preserves volume",
                0.95 <= ratios[scheme] <= 1.05,
                f"ratio {ratios[scheme]:.4f} in [0.95, 1.05]",
            )
        config = IntegratorConfig("euler", 0.1, 2 * np.pi, 10)
        euler_ratio = volume_ratio(red.game, red.regularizers, cloud, config).ratio
        report(7, "euler expands volume", euler_ratio > 1.5, f"ratio {euler_ratio:.3f} > 1.5")
    report(7, "runtime", timer.elapsed < 120.0, f"{timer.elapsed:.2f}s < 120s")


def test_criterion_8_coordination_degeneracy(tmp_path, capsys):
    """Non-bipartite coordination: zero energy, and the CLI says so."""
    game = coordination_triangle()
    regs = default_regularizers(game, "entropy")
    rng = np.random.default_rng(5)
    y0 = tuple(0.3 * rng.normal(size=k) for k in game.strategy_counts)
    traj = run(game, regs, y0, scheme="rk4", eta=1e-3, horizon=5.0, stride=50)
    h = energy_rows(traj, game, regs, "network")
    peak = float(np.max(np.abs(h)))
    report(
        8,
        "network energy identically zero",
        peak <= 1e-10,
        f"max |H| over snapshots {peak:.3e} (tol 1e-10)",
    )

    import json

    doc = {
        "agents": [
            {"id": i, "strategies": int(k), "regularizer": "entropy"}
            for i, k in enumerate(game.strategy_counts, start=1)
        ],
        "edges": [
            {"i": i + 1, "j": j + 1, "A": a.tolist()} for (i, j), a in game.payoffs.items()
        ],
        "sigma": 1,
    }
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    code = cli_main(["validate", "--game", str(path)])
    out = capsys.readouterr().out
    report(
        8,
        "cli reports degeneracy",
        code == 0 and "network energy identically zero" in out,
        f"validate output: {out.strip()!r}",
    )


def test_criterion_9_oracle_suite():
    """Choice maps match brute force; Fenchel-Young holds with equality."""
    with Timer(60.0) as timer:
        rng = np.random.default_rng(100)
        worst = {"entropy": 0.0, "euclidean": 0.0}
        for kind in worst:
            reg = Regularizer(kind, dim=2)
            for _ in range(50):
                y = rng.normal(scale=2.0, size=2)
                gap = float(np.max(np.abs(choice_map(reg, y) - grid_argmax(reg, y))))
                worst[kind] = max(worst[kind], gap)
            report(
                9,
                f"grid oracle / {kind}",
                worst[kind] <= 2e-4,
                f"max coordinate gap over 50 draws: {worst[kind]:.2e} (tol 2e-4)",
            )

        worst_ineq = -np.inf
        worst_eq = 0.0
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            kind = "entropy" if rng.uniform() < 0.5 else "euclidean"
            reg = Regularizer(kind, dim=dim)
            y = rng.normal(scale=3.0, size=dim)
            x = rng.dirichlet(np.ones(dim))
            slack = float(h_value(reg, x) + conjugate_value(reg, y) - x @ y)
            worst_ineq = max(worst_ineq, -slack)
            xc = choice_map(reg, y)
            eq = float(abs(h_value(reg, xc) + conjugate_value(reg, y) - xc @ y))
            worst_eq = max(worst_eq, eq)
        report(
            9,
            "fenchel-young inequality",
            worst_ineq <= 1e-10,
            f"worst violation {worst_ineq:.2e} over 1000 samples (tol 1e-10)",
        )
        report(
            9,
            "fenchel-young equality at choice",
            worst_eq <= 1e-10,
            f"worst gap {worst_eq:.2e} (tol 1e-10)",
        )
    report(9, "runtime", timer.elapsed < 60.0, f"{timer.elapsed:.2f}s < 60s")
