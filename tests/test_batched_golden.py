"""Golden end rows of batched runs, bit for bit.

Each case runs one scheme on 8 starts for 20 steps and compares the end
rows of y, X and x with `golden_batched.json`, which holds them as hex
floats.  They were recorded while the batched kernels stepped on
(batch, D) arrays, before they moved to the coordinate-major (D, batch)
layout: a layout that reorders any sum or product moves a bit here.  The
games: the working-set test's four-agent ring plus a chord (entropy and
euclidean blocks of widths 2 to 4, spans below 16),
`games/coordination_triangle.json`, the box game of
`reduce_2x2_to_generalized` (affine, blocks of one row) and a two-agent
game with strategy counts (1, 4).  A start with two leading axes steps as
its flattened rows.

Regenerate the file only for a deliberate change of results:

    PYTHONPATH=src python tests/test_batched_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hamgame import (
    IntegratorConfig,
    Regularizer,
    default_regularizers,
    load_game_file,
    reduce_2x2_to_generalized,
    sample_payoff_ball,
    simulate,
)

from conftest import matching_pennies, zero_sum_from_edges

GOLDEN = Path(__file__).with_name("golden_batched.json")
GAMES_DIR = Path(__file__).resolve().parents[1] / "games"
SCHEMES = ("euler", "rk4", "symplectic_leapfrog")
STARTS, ETA, STEPS = 8, 0.05, 20


def _ring_plus_chord(rng):
    counts = (3, 2, 4, 3)
    game = zero_sum_from_edges(counts, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], rng, centered=True)
    regs = tuple(Regularizer(kind, dim=k) for k, kind in zip(counts, ("entropy", "euclidean") * 2))
    return game, regs, [0.1 * rng.normal(size=k) for k in counts]


def _coordination_triangle(rng):
    loaded = load_game_file(GAMES_DIR / "coordination_triangle.json")
    return loaded.game, loaded.regularizers, list(loaded.y0)


def _box(rng):
    base = matching_pennies()
    y0 = tuple(0.5 * rng.normal(size=2) for _ in range(2))
    red = reduce_2x2_to_generalized(base, default_regularizers(base, "euclidean"), y0)
    return red.game, red.regularizers, list(red.y0)


def _counts_1_4(rng):
    game = zero_sum_from_edges((1, 4), [(0, 1)], rng)
    return game, (Regularizer("euclidean", dim=1), Regularizer("entropy", dim=4, scale=0.7)), [
        rng.normal(size=1), rng.normal(size=4)]


GAMES = {
    "ring_plus_chord": _ring_plus_chord,
    "coordination_triangle": _coordination_triangle,
    "box_2x2": _box,
    "counts_1_4": _counts_1_4,
}
CASES = [(name, scheme) for name in GAMES for scheme in SCHEMES]


def _end_rows(name, scheme):
    rng = np.random.default_rng(11)
    game, regs, center = GAMES[name](rng)
    cloud = sample_payoff_ball(center, 0.05, STARTS, 3)
    traj = simulate(game, regs, cloud, IntegratorConfig(scheme, ETA, STEPS * ETA, 7), energy="none")
    assert not traj.metadata["diagnostics"]["truncated"]
    return {part: [[float(v).hex() for v in row] for row in getattr(traj, part)[-1]] for part in ("y", "X", "x")}


@pytest.mark.parametrize("name,scheme", CASES)
def test_end_rows_match_golden_bits(name, scheme):
    stored = json.loads(GOLDEN.read_text())[f"{name}/{scheme}"]
    assert _end_rows(name, scheme) == stored


@pytest.mark.parametrize("scheme", SCHEMES)
def test_leading_axes_step_as_flat_rows(scheme):
    # a (2, 4, k) start steps as its 8 rows: the same bits, recorded in its shape
    rng = np.random.default_rng(11)
    game, regs, center = _ring_plus_chord(rng)
    cloud = sample_payoff_ball(center, 0.05, STARTS, 3)
    config = IntegratorConfig(scheme, ETA, STEPS * ETA, 7)
    flat = simulate(game, regs, cloud, config, energy="none")
    grid = simulate(game, regs, tuple(v.reshape(2, 4, -1) for v in cloud), config, energy="none")
    for part in ("y", "X", "x"):
        got, want = getattr(grid, part), getattr(flat, part)
        assert got.shape == (len(want), 2, 4, want.shape[-1])
        assert np.array_equal(got.reshape(want.shape).view(np.int64), want.view(np.int64))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({f"{name}/{scheme}": _end_rows(name, scheme) for name, scheme in CASES}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
