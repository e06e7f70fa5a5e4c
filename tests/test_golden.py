"""Golden trajectories: fixed-seed runs compared with rows stored in tests/.

Each case is one `simulate` run (euler, rk4 and leapfrog on Matching
Pennies, on `coordination_triangle` and on the affine game of
`reduce_2x2_to_generalized`).  `golden_trajectories.json` holds its
snapshot rows (t, x, H, F, D), recorded before the energy functions were
rewritten around one formula.  A refactor that moves any value by more
than 1e-12 fails here.

Regenerate the file only for a deliberate change of results:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hamgame import (
    IntegratorConfig,
    default_regularizers,
    reduce_2x2_to_generalized,
    simulate,
)

from conftest import coordination_triangle, matching_pennies, uniform_profile

GOLDEN = Path(__file__).with_name("golden_trajectories.json")
TOL = 1e-12
SCHEMES = ("euler", "rk4", "symplectic_leapfrog")


def _matching_pennies(rng):
    game = matching_pennies()
    regs = default_regularizers(game, "entropy")
    return game, regs, tuple(0.5 * rng.normal(size=2) for _ in range(2)), uniform_profile(game)


def _coordination_triangle(rng):
    game = coordination_triangle()
    regs = default_regularizers(game, "euclidean")
    y0 = tuple(0.3 * rng.normal(size=k) for k in game.strategy_counts)
    return game, regs, y0, uniform_profile(game)


def _affine(rng):
    base = matching_pennies()
    y0 = tuple(0.5 * rng.normal(size=2) for _ in range(2))
    red = reduce_2x2_to_generalized(base, default_regularizers(base, "euclidean"), y0)
    return red.game, red.regularizers, red.y0, (np.array([0.5]), np.array([0.5]))


GAMES = {
    "matching_pennies": _matching_pennies,
    "coordination_triangle": _coordination_triangle,
    "affine_2x2": _affine,
}


def _rows(name, scheme):
    game, regs, y0, ref = GAMES[name](np.random.default_rng(7))
    traj = simulate(game, regs, y0, IntegratorConfig(scheme, 0.05, 2.0, 8), ref=ref)
    cols = [traj.t[:, None], traj.strategy_matrix()]
    cols += [np.asarray(v, dtype=float)[:, None] for v in (traj.energy, traj.fenchel, traj.bregman)]
    return np.hstack(cols)


CASES = [(name, scheme) for name in GAMES for scheme in SCHEMES]


@pytest.mark.parametrize("name,scheme", CASES)
def test_matches_golden_rows(name, scheme):
    stored = np.array(json.loads(GOLDEN.read_text())[f"{name}/{scheme}"])
    got = _rows(name, scheme)
    assert got.shape == stored.shape
    np.testing.assert_allclose(got, stored, rtol=0.0, atol=TOL)


if __name__ == "__main__":
    blocks = []  # one row per line, so a diff shows which snapshots moved
    for name, scheme in CASES:
        rows = ",\n".join(f"  {json.dumps(row)}" for row in _rows(name, scheme).tolist())
        blocks.append(f'"{name}/{scheme}": [\n{rows}\n ]')
    GOLDEN.write_text("{\n " + ",\n ".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN}")
