"""Differential tests: trajectories as stacked arrays, from the loop to the report.

`simulate` writes each recorded snapshot into rows of preallocated
(snapshots, batch..., D) arrays, `Trajectory.states` builds SystemState
views only on access, the CSV writer formats whole rows, and
`fenchel_bregman_series` reuses readings taken against the same
reference under the same regularizers.  The metadata holds y0 as views of
the start row and ref as arrays; only the sidecar writer turns them into
lists.  The CSV reader converts every cell in one call.  The references below are frozen copies
of the code this replaced: the per-cell CSV writer and reader, the
sidecar writer fed list-valued metadata, and the loop that kept the
snapshots in a list and built one SystemState per snapshot.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathlib import Path

from hamgame import (
    IntegratorConfig,
    MixedProfile,
    NetworkGame,
    Regularizer,
    SystemState,
    Trajectory,
    build_report,
    fenchel_bregman_series,
    load_game_file,
    make_reference,
    read_trajectory_csv,
    sample_payoff_ball,
    simulate,
    solve_2x2_fully_mixed_nash,
    write_trajectory_csv,
)
from hamgame.cli import main
from hamgame.dynamics import KERNELS, _blow_up, _Flow
from hamgame.fileio import csv_columns, game_fingerprint

from conftest import MP_MATRIX, _random_case, frozen_snapshots, mp_start, triangle_zero_sum, uniform_profile


def _ref_fmt(v: float) -> str:
    if v != v:  # NaN marks an unavailable reading
        return ""
    return format(float(v), ".17g")


def _ref_write_csv(traj, game, path):
    """The per-cell writer: one format() call per value."""
    xs = traj.strategy_matrix()
    t = traj.t
    H = np.asarray(traj.energy, dtype=float)
    F = traj.fenchel if traj.fenchel is not None else np.full(len(t), np.nan)
    D = traj.bregman if traj.bregman is not None else np.full(len(t), np.nan)
    with open(path, "w") as handle:
        handle.write(",".join(csv_columns(game)) + "\n")
        for row in range(len(t)):
            cells = [_ref_fmt(t[row])]
            cells.extend(_ref_fmt(v) for v in xs[row])
            cells.extend([_ref_fmt(H[row]), _ref_fmt(F[row]), _ref_fmt(D[row])])
            handle.write(",".join(cells) + "\n")


def _ref_states(game, regs, y0, config):
    """The snapshot loop that listed (t, y, X, x) and built a SystemState per snapshot.

    A 1-D start steps through the frozen list loop (conftest.frozen_snapshots),
    a batch through the array kernels; each listed state becomes arrays only
    when the states are built.
    """
    flow = _Flow(game, regs, y0)
    snaps = frozen_snapshots(flow, config) if flow.y0.ndim == 1 else _batched_snapshots(flow, config)

    def split(v):
        return flow.op.split(np.asarray(v, dtype=float))

    y0 = tuple(np.asarray(v, dtype=float) for v in y0)
    return [SystemState(t, split(y), split(X), split(x), y0) for t, y, X, x in snaps]


def _batched_snapshots(flow, config):
    """The array kernels' steps on the coordinate-major (D, n) transpose of
    the start, each listed state transposed back to the start's shape."""
    kernel, shape = KERNELS[config.scheme], flow.y0.shape
    flow.y0 = np.ascontiguousarray(flow.y0.reshape(-1, shape[-1]).T)
    t, y, X, force = 0.0, flow.y0, np.zeros_like(flow.y0), None
    snaps = [(t, y, X, flow.choice(y))]
    for i in range(1, config.steps + 1):
        last = t, y, X
        y, X, force = kernel(flow, t, y, X, force, config.eta)
        t = i * config.eta
        if _blow_up(y, flow) is not None:
            if (i - 1) % config.stride:
                snaps.append(last + (flow.choice(last[1]),))
            break
        if i % config.stride == 0 or i == config.steps:
            snaps.append((t, y, X, flow.choice(y)))
    return [(t, *(a.T.reshape(shape) for a in arrays)) for t, *arrays in snaps]


def _assert_same_states(traj, expected):
    assert len(traj.states) == len(expected)
    got_all = list(traj.states)
    for k, want in enumerate(expected):
        for got in (traj.states[k], traj.states[k - len(expected)], got_all[k]):
            assert type(got.t) is float and got.t == want.t
            for part in ("y", "X", "x", "y0"):
                a, b = getattr(got, part), getattr(want, part)
                assert len(a) == len(b)
                for u, v in zip(a, b):
                    assert u.shape == v.shape
                    np.testing.assert_array_equal(u, v)
    with pytest.raises(IndexError):
        traj.states[len(expected)]


# ---------------------------------------------------------------------------
# SystemState views against the per-snapshot construction


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["zero_sum", "coordination", "affine", "bipartite_fold"]),
    counts=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([None, 3, (2, 3)]),
    scheme=st.sampled_from(["euler", "rk4", "symplectic_leapfrog"]),
    steps=st.integers(0, 12),
    stride=st.integers(1, 5),
)
def test_states_match_per_snapshot_construction(family, counts, seed, batch, scheme, steps, stride):
    if family == "bipartite_fold" and len(counts) < 3:
        counts = counts + [2]
    game, regs, y0 = _random_case(family, counts, seed, batch)
    config = IntegratorConfig(scheme, 0.05, steps * 0.05, stride)
    traj = simulate(game, regs, y0, config, energy="none")
    _assert_same_states(traj, _ref_states(game, regs, y0, config))
    assert traj.batched == (batch is not None)
    assert traj.y.shape == traj.X.shape == traj.x.shape == (len(traj.t),) + traj.y.shape[1:]


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_truncated_states_match_per_snapshot_construction(lead, stride):
    # the projection's precision limit stops this run at step 4; at stride
    # 2 the last finite state (step 3) ends the record, at 1 and 3 it is
    # already recorded
    a = 1e3 * MP_MATRIX
    game = NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
    regs = tuple(Regularizer("euclidean", dim=2, scale=1e-6) for _ in range(2))
    y0 = tuple(np.broadcast_to(v, lead + (2,)) for v in ([3e-6, -3e-6], [2e-6, 1e-6]))
    config = IntegratorConfig("euler", 1e-3, 0.5, stride)
    traj = simulate(game, regs, y0, config)
    assert traj.metadata["diagnostics"]["blow_up_step"] == 4
    _assert_same_states(traj, _ref_states(game, regs, y0, config))
    assert len(traj.t) == len(traj.energy) == 1 + 3 // stride + (3 % stride != 0)


# ---------------------------------------------------------------------------
# whole-row CSV formatting against the per-cell writer

_SPECIAL = [np.nan, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-300, -3.7e-301,
            1e300, -1.7976931348623157e308, 0.1, 1.0 / 3.0, np.inf, -np.inf]


def _table_traj(values, dims, with_ref):
    """A single trajectory holding the given values, row by row."""
    n_cols = 1 + sum(dims) + 3
    rows = max(1, -(-len(values) // n_cols))
    table = np.resize(np.asarray(values, dtype=float), (rows, n_cols))
    bounds = np.cumsum((0,) + tuple(dims))
    t, x, H, F, D = table[:, 0], table[:, 1:-3], table[:, -3], table[:, -2], table[:, -1]
    return Trajectory(
        t=t, y=x.copy(), X=x.copy(), x=x,
        slices=tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])),
        energy=H, fenchel=F if with_ref else None, bregman=D if with_ref else None,
    )


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL)), min_size=1, max_size=60),
    dims=st.sampled_from([(2, 2), (3, 1, 2), (1, 1)]),
    with_ref=st.booleans(),
)
@example(values=_SPECIAL, dims=(2, 2), with_ref=True)
@example(values=[np.nan] * 7, dims=(1, 1), with_ref=True)
def test_csv_rows_match_per_cell_writer(tmp_path_factory, values, dims, with_ref):
    game = NetworkGame(dims, {})
    traj = _table_traj(values, dims, with_ref)
    out = tmp_path_factory.mktemp("csv")
    write_trajectory_csv(traj, game, out / "rows.csv")
    _ref_write_csv(traj, game, out / "cells.csv")
    assert (out / "rows.csv").read_bytes() == (out / "cells.csv").read_bytes()


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("with_ref", [False, True])
def test_simulated_csv_matches_per_cell_writer(tmp_path, scheme, with_ref):
    game, regs, y0 = mp_start("entropy")
    ref = uniform_profile(game) if with_ref else None
    traj = simulate(game, regs, y0, IntegratorConfig(scheme, 0.05, 3.0, 1), ref=ref)
    write_trajectory_csv(traj, game, tmp_path / "rows.csv")
    _ref_write_csv(traj, game, tmp_path / "cells.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


# ---------------------------------------------------------------------------
# the one-call CSV reader against the per-cell reader


def _ref_read_csv(path):
    """The per-cell reader: one float() call per cell."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    return header, np.array([[float(cell) if cell else np.nan for cell in row] for row in rows])


def _assert_same_read(path):
    header, data = read_trajectory_csv(path)
    ref_header, ref_data = _ref_read_csv(path)
    assert header == ref_header
    assert data.shape == ref_data.shape and data.dtype == ref_data.dtype
    assert data.tobytes() == ref_data.tobytes()  # every bit: NaN, signed zeros, subnormals


_HUGE = st.floats(1e290, 1.7976931348623157e308) | st.floats(-1.7976931348623157e308, -1e290)
_TINY = st.floats(5e-324, 1e-290) | st.floats(-1e-290, -5e-324)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL), _HUGE, _TINY), min_size=1, max_size=60),
    dims=st.sampled_from([(2, 2), (3, 1, 2), (1, 1)]),
    with_ref=st.booleans(),
)
@example(values=_SPECIAL, dims=(2, 2), with_ref=True)
@example(values=[np.nan] * 7, dims=(1, 1), with_ref=True)
def test_csv_reader_matches_per_cell_reader(tmp_path_factory, values, dims, with_ref):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_trajectory_csv(_table_traj(values, dims, with_ref), NetworkGame(dims, {}), path)
    _assert_same_read(path)


@pytest.mark.parametrize("case", ["mp_euler", "mp_rk4_ref", "near_boundary", "triangle"])
def test_csv_reader_matches_per_cell_reader_on_simulate_output(tmp_path, case):
    if case == "triangle":
        game, _, traj = _triangle_run("rk4", uniform_profile(triangle_zero_sum()))
    else:
        game, regs, y0 = mp_start("entropy")
        if case == "near_boundary":  # the softmax underflows: D is unavailable on some rows
            y0 = (y0[0] + np.array([373.0, -373.0]), y0[1])
        scheme = "euler" if case == "mp_euler" else "rk4"
        traj = simulate(game, regs, y0, IntegratorConfig(scheme, 0.05, 3.0, 1),
                        ref=None if case == "mp_euler" else uniform_profile(game))
    write_trajectory_csv(traj, game, tmp_path / "run.csv")
    _assert_same_read(tmp_path / "run.csv")
    if case == "near_boundary":
        assert np.isnan(read_trajectory_csv(tmp_path / "run.csv")[1][:, -1]).any()


@pytest.mark.parametrize("body", [
    "1,2,3\n4,5\n",  # ragged
    "1,2\n3,abc\n",  # not a number
    "1,2\n3, \n",  # a blank cell is not an empty one
    "1,2\n#3,4\n",  # no comment lines
    "1,2\n3,0x10\n",
])
def test_csv_reader_rejects_what_the_per_cell_reader_rejects(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n" + body)
    with pytest.raises(ValueError):
        _ref_read_csv(path)
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


@pytest.mark.parametrize("body", ["", "\n \n", "1.5\n\n2\n", "1,,\n,2,\n", " 1 ,2\r\n3,4\r\n", "1_0,2\n"])
def test_csv_reader_edge_layouts_match_per_cell_reader(tmp_path, body):
    path = tmp_path / "edge.csv"
    path.write_bytes(b"a,b\n" + body.encode())
    _assert_same_read(path)


# ---------------------------------------------------------------------------
# readings reused against the same reference, recomputed against another


def _triangle_run(scheme, ref):
    game = triangle_zero_sum()
    regs = (Regularizer("entropy", dim=2), Regularizer("euclidean", dim=3, scale=0.7),
            Regularizer("entropy", dim=2, scale=1.3))
    rng = np.random.default_rng(11)
    y0 = tuple(0.4 * rng.normal(size=k) for k in game.strategy_counts)
    traj = simulate(game, regs, y0, IntegratorConfig(scheme, 0.05, 4.0, 1), ref=ref)
    return game, regs, traj


@pytest.mark.parametrize("scheme", ["euler", "rk4", "symplectic_leapfrog"])
def test_report_reuses_readings_as_recomputed(scheme):
    game = triangle_zero_sum()
    ref = MixedProfile(uniform_profile(game))
    game, regs, traj = _triangle_run(scheme, ref)
    # without the record of its reference the trajectory's series are read again
    stripped = replace(traj, metadata=dict(traj.metadata, ref=None))

    reused = fenchel_bregman_series(traj, regs, ref)
    assert reused.fenchel is traj.fenchel and reused.bregman is traj.bregman
    again = fenchel_bregman_series(stripped, regs, ref)
    np.testing.assert_array_equal(reused.fenchel, again.fenchel)
    np.testing.assert_array_equal(reused.bregman, again.bregman)

    # the record holds float copies of the profile, compared component by
    # component: lists read back from a sidecar match too
    recorded = traj.metadata["ref"]
    assert all(isinstance(r, np.ndarray) and r is not u for r, u in zip(recorded, ref))
    as_lists = replace(traj, metadata=dict(traj.metadata, ref=[r.tolist() for r in recorded]))
    assert fenchel_bregman_series(as_lists, regs, ref).fenchel is traj.fenchel
    # a record that misses a component or differs in one is not this reference
    for other in (recorded[:-1], recorded[:-1] + [np.flip(recorded[-1]) + [0.25, -0.25]]):
        assert len(other) < len(recorded) or not np.array_equal(other[-1], recorded[-1])
        moved = replace(traj, metadata=dict(traj.metadata, ref=other))
        series = fenchel_bregman_series(moved, regs, ref)
        assert series.fenchel is not traj.fenchel
        np.testing.assert_array_equal(series.fenchel, again.fenchel)
    # readings against the same profile under other regularizers are read again
    swapped = tuple(replace(r, kind="euclidean" if r.kind == "entropy" else "entropy") for r in regs)
    series = fenchel_bregman_series(traj, swapped, ref)
    assert series.fenchel is not traj.fenchel and not np.array_equal(series.fenchel, traj.fenchel)
    forced = fenchel_bregman_series(stripped, swapped, ref)
    np.testing.assert_array_equal(series.fenchel, forced.fenchel)
    np.testing.assert_array_equal(series.bregman, forced.bregman)

    report = build_report(traj, game, regs, ref=ref, recurrence_epsilon=0.05)
    forced = build_report(stripped, game, regs, ref=ref, recurrence_epsilon=0.05)
    assert report.to_json() == forced.to_json()
    report = build_report(traj, game, swapped, ref=ref, recurrence_epsilon=0.05)
    assert report.to_json() == build_report(stripped, game, swapped, ref=ref, recurrence_epsilon=0.05).to_json()
    assert json.loads(report.to_json())["fenchel"] is not None


def test_report_against_another_reference_recomputes():
    game = triangle_zero_sum()
    ref = MixedProfile(uniform_profile(game))
    other = MixedProfile((np.array([0.3, 0.7]), np.array([0.2, 0.5, 0.3]), np.array([0.6, 0.4])))
    game, regs, traj = _triangle_run("rk4", ref)
    _, _, other_traj = _triangle_run("rk4", other)

    series = fenchel_bregman_series(traj, regs, other)
    assert series.fenchel is not traj.fenchel
    np.testing.assert_array_equal(series.fenchel, other_traj.fenchel)
    np.testing.assert_array_equal(series.bregman, other_traj.bregman)
    assert not np.array_equal(series.fenchel, traj.fenchel)

    report = build_report(traj, game, regs, ref=other)
    assert report.to_json() == build_report(other_traj, game, regs, ref=other).to_json()
    assert report.to_json() != build_report(traj, game, regs, ref=ref).to_json()

    unread = simulate(game, regs, traj.states[0].y0, IntegratorConfig("rk4", 0.05, 4.0, 1))
    assert unread.fenchel is None and unread.metadata["ref"] is None
    series = fenchel_bregman_series(unread, regs, ref)
    np.testing.assert_array_equal(series.fenchel, traj.fenchel)
    np.testing.assert_array_equal(series.bregman, traj.bregman)


# ---------------------------------------------------------------------------
# metadata: arrays in the trajectory, lists in the sidecar

GAMES = Path(__file__).resolve().parent.parent / "games"


def _ref_write_metadata(meta, game_hash, snapshots, path):
    """The sidecar writer as it was, fed metadata whose y0 and ref are lists."""
    meta = dict(meta)
    meta["game_hash"] = game_hash
    meta["snapshots"] = snapshots
    with open(path, "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _network_file(tmp_path):
    """The triangle with entropy and euclidean agents, and its uniform equilibrium."""
    game = triangle_zero_sum()
    agents = [{"id": i + 1, "strategies": k, "regularizer": kind, "scale": scale, "y0": [0.1 * (i + 1)] * k}
              for i, (k, kind, scale) in enumerate(zip(game.strategy_counts, ("entropy", "euclidean", "entropy"),
                                                        (1.0, 0.7, 1.3)))]
    edges = [{"i": i + 1, "j": j + 1, "A": a.tolist()} for (i, j), a in sorted(game.payoffs.items())]
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"agents": agents, "edges": edges, "sigma": -1}))
    return path, json.dumps([v.tolist() for v in uniform_profile(game)])


@pytest.mark.parametrize("network", [False, True])
@pytest.mark.parametrize("with_ref", [False, True])
@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_simulate_sidecar_matches_list_metadata_writer(tmp_path, network, with_ref, seed, scheme):
    if network:
        game_path, ref_arg = _network_file(tmp_path)
    else:
        game_path, ref_arg = GAMES / "matching_pennies_replicator.json", "solve2x2"
    argv = ["simulate", "--game", str(game_path), "--scheme", scheme, "--eta", "0.05",
            "--horizon", "1.0", "--stride", "3", "--out", str(tmp_path / "out")]
    argv += ["--ref", ref_arg] if with_ref else []
    argv += ["--seed", str(seed)] if seed is not None else []
    assert main(argv) == 0
    written = (tmp_path / "out" / f"{game_path.stem}_{scheme}.meta.json").read_bytes()

    loaded = load_game_file(game_path)
    y0 = loaded.y0 if seed is None else tuple(v[0] for v in sample_payoff_ball(loaded.y0, 0.1, 1, seed))
    ref = None
    if with_ref:
        if network:
            profile = MixedProfile(tuple(np.asarray(v, dtype=float) for v in json.loads(ref_arg)))
        else:
            profile = solve_2x2_fully_mixed_nash(loaded.game)
        ref = make_reference(loaded.game, profile)
    traj = simulate(loaded.game, loaded.regularizers, y0, IntegratorConfig(scheme, 0.05, 1.0, 3), ref=ref)
    lists = dict(traj.metadata, timing=json.loads(written)["timing"],
                 y0=[np.asarray(v).tolist() for v in y0],
                 ref=None if ref is None else [np.asarray(v).tolist() for v in ref])
    _ref_write_metadata(lists, game_fingerprint(loaded.game), len(traj.t), tmp_path / "lists.meta.json")
    assert (tmp_path / "lists.meta.json").read_bytes() == written


@pytest.mark.parametrize("lead", [(), (4,)])
def test_metadata_y0_views_the_start_row(lead):
    game = triangle_zero_sum()
    regs = (Regularizer("entropy", dim=2), Regularizer("euclidean", dim=3, scale=0.7),
            Regularizer("entropy", dim=2, scale=1.3))
    rng = np.random.default_rng(2)
    y0 = tuple(0.3 * rng.normal(size=lead + (k,)) for k in game.strategy_counts)
    kept = tuple(v.copy() for v in y0)
    traj = simulate(game, regs, y0, IntegratorConfig("rk4", 0.05, 1.0, 4), ref=uniform_profile(game))
    parts = traj.metadata["y0"]
    assert len(parts) == game.n
    for part, s, v in zip(parts, traj.slices, kept):
        assert np.shares_memory(part, traj.y[0])
        np.testing.assert_array_equal(part, traj.y[0][..., s])
        np.testing.assert_array_equal(part, v)
    for v in y0:  # a later write to the caller's arrays does not reach the record
        v += 1.0
    for part, v in zip(parts, kept):
        np.testing.assert_array_equal(part, v)
    for r, u in zip(traj.metadata["ref"], uniform_profile(game)):
        assert isinstance(r, np.ndarray) and r.dtype == float
        np.testing.assert_array_equal(r, u)
