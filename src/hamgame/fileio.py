"""Game specification files, trajectory files and content hashing.

A trajectory file is a CSV of one row per snapshot (t, the strategies, H,
F and D at 17 significant digits, so values round trip exactly) plus a
JSON sidecar with the run's metadata.  A game file is JSON with per-agent
strategy counts, regularizer kinds and initial payoff vectors, plus one
entry per ordered edge:

    {
      "agents": [
        {"id": 1, "strategies": 2, "regularizer": "entropy", "y0": [0, 0]},
        {"id": 2, "strategies": 2, "regularizer": "entropy", "y0": [0, 0]}
      ],
      "edges": [
        {"i": 1, "j": 2, "A": [[1, -1], [-1, 1]]},
        {"i": 2, "j": 1, "A": [[-1, 1], [1, -1]]}
      ],
      "sigma": -1
    }

sigma may be -1, 1, or "auto".  A declared sigma is checked against the
matrices themselves; "auto" classifies the game, and a constant-sum game is
normalized to exact zero-sum with the applied constants recorded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .games import (
    Classification,
    GameKind,
    GeneralizedGame,
    NetworkGame,
    classify_game,
    normalize_constant_sum,
)
from .regularizers import KINDS, Regularizer


class GameFileError(ValueError):
    """Malformed or inconsistent game specification file."""


@dataclass(frozen=True)
class LoadedGame:
    game: NetworkGame
    regularizers: tuple[Regularizer, ...]
    y0: tuple[np.ndarray, ...]
    classification: Classification
    normalization: dict | None  # edge constants removed by auto-normalization
    path: str


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise GameFileError(f"{where}: missing field {key!r}")
    return obj[key]


def _finite(values, where: str, field: str) -> np.ndarray:
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as err:  # a string, an object, or ragged rows
        raise GameFileError(f"{where}: {field!r} must be numbers in a rectangular array ({err})") from None
    # json.load reads NaN, Infinity and -Infinity literals
    if not np.all(np.isfinite(a)):
        raise GameFileError(f"{where}: {field!r} must be finite")
    return a


def load_game_file(path) -> LoadedGame:
    path = str(path)
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as err:
            raise GameFileError(
                f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
            ) from None
    if not isinstance(raw, dict):
        raise GameFileError(f"{path}: top level must be an object")

    agents = _need(raw, "agents", path)
    if not isinstance(agents, list) or not agents:
        raise GameFileError(f"{path}: 'agents' must be a non-empty list")
    ids, counts, regs, y0 = [], [], [], []
    for pos, agent in enumerate(agents):
        where = f"{path}: agents[{pos}]"
        agent_id = _need(agent, "id", where)
        if agent_id in ids:
            raise GameFileError(f"{where}: duplicate agent id {agent_id!r}")
        k = _need(agent, "strategies", where)
        if not isinstance(k, int) or k < 1:
            raise GameFileError(f"{where}: 'strategies' must be a positive integer")
        kind = _need(agent, "regularizer", where)
        if kind not in KINDS:
            raise GameFileError(f"{where}: unknown regularizer {kind!r}")
        vec = _finite(agent.get("y0", [0.0] * k), where, "y0")
        if vec.shape != (k,):
            raise GameFileError(f"{where}: 'y0' must have length {k}")
        ids.append(agent_id)
        counts.append(k)
        try:
            scale = float(agent.get("scale", 1.0))
            if not np.isfinite(scale):
                raise ValueError("'scale' must be finite")
            regs.append(Regularizer(kind, dim=k, scale=scale))
        except (TypeError, ValueError) as err:
            raise GameFileError(f"{where}: {err}") from None
        y0.append(vec)
    index = {agent_id: pos for pos, agent_id in enumerate(ids)}

    payoffs = {}
    for pos, edge in enumerate(raw.get("edges", [])):
        where = f"{path}: edges[{pos}]"
        i_id = _need(edge, "i", where)
        j_id = _need(edge, "j", where)
        for agent_id in (i_id, j_id):
            if agent_id not in index:
                raise GameFileError(f"{where}: unknown agent id {agent_id!r}")
        i, j = index[i_id], index[j_id]
        if i == j:
            raise GameFileError(f"{where}: self edge on agent {i_id!r}")
        if (i, j) in payoffs:
            raise GameFileError(f"{where}: duplicate edge ({i_id!r}, {j_id!r})")
        a = _finite(_need(edge, "A", where), where, "A")
        if a.shape != (counts[i], counts[j]):
            raise GameFileError(
                f"{where}: matrix shape {a.shape} does not match ({counts[i]}, {counts[j]})"
            )
        payoffs[(i, j)] = a

    declared = raw.get("sigma", "auto")
    game = NetworkGame(tuple(counts), payoffs, sigma=None)
    classification = classify_game(game)
    normalization = None
    if declared == "auto":
        if classification.kind == GameKind.ZERO_SUM:
            game = NetworkGame(tuple(counts), payoffs, sigma=-1)
        elif classification.kind == GameKind.COORDINATION:
            game = NetworkGame(tuple(counts), payoffs, sigma=1)
        elif classification.kind == GameKind.CONSTANT_SUM:
            game = normalize_constant_sum(game)
            normalization = {
                f"{ids[i]}-{ids[j]}": c
                for (i, j), c in classification.edge_constants.items()
            }
    elif declared in (-1, 1):
        try:
            game = NetworkGame(tuple(counts), payoffs, sigma=int(declared))
        except ValueError as err:
            raise GameFileError(
                f"{path}: declared sigma {declared} contradicts the matrices ({err})"
            ) from None
    else:
        raise GameFileError(f"{path}: 'sigma' must be -1, 1, or \"auto\"")
    return LoadedGame(
        game=game,
        regularizers=tuple(regs),
        y0=tuple(y0),
        classification=classification,
        normalization=normalization,
        path=path,
    )


def game_fingerprint(game: NetworkGame) -> str:
    """Stable content hash of a game (matrices, sigma, affine terms)."""
    doc = {
        "strategy_counts": list(game.strategy_counts),
        "sigma": game.sigma,
        "payoffs": {
            f"{i},{j}": np.asarray(a).tolist() for (i, j), a in sorted(game.payoffs.items())
        },
    }
    if isinstance(game, GeneralizedGame):
        doc["b"] = {f"{i},{j}": v.tolist() for (i, j), v in sorted(game.b.items())}
        doc["d"] = {f"{i},{j}": v.tolist() for (i, j), v in sorted(game.d.items())}
        doc["c"] = {f"{i},{j}": c for (i, j), c in sorted(game.c.items())}
        doc["spaces"] = list(game.spaces)
    blob = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def csv_columns(game: NetworkGame) -> list[str]:
    cols = ["t"]
    for i, k in enumerate(game.strategy_counts):
        cols.extend(f"x_{i + 1}_{s + 1}" for s in range(k))
    cols.extend(["H", "F", "D"])
    return cols


def write_trajectory_csv(traj, game: NetworkGame, path):
    """A single dynamics.Trajectory as CSV, with one %-format per row.

    '%.17g' % v prints what format(v, '.17g') prints, and only NaN, the
    mark of an unavailable reading, prints 'nan'; its cells are left empty.
    """
    if traj.batched:
        raise ValueError("CSV output is defined for single trajectories only")
    nan = np.full(len(traj.t), np.nan)
    F, D = (nan if v is None else v for v in (traj.fenchel, traj.bregman))
    table = np.column_stack([traj.t, traj.strategy_matrix(), traj.energy, F, D])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    body = "".join([row % tuple(values) for values in table.tolist()])
    with open(path, "w") as handle:
        handle.write(",".join(csv_columns(game)) + "\n" + body.replace("nan", ""))


def write_trajectory_metadata(traj, game_hash: str, path):
    meta = dict(traj.metadata, game_hash=game_hash, snapshots=len(traj.t))
    for key in ("y0", "ref"):  # arrays in the metadata, lists in the sidecar
        if meta.get(key) is not None:
            meta[key] = [np.asarray(v).tolist() for v in meta[key]]
    with open(path, "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_trajectory_csv(path):
    """Columns of a trajectory file as arrays (empty cells become NaN).

    Every cell is converted in one np.array call, which parses a string as
    float() does, so '%.17g' reads back to the same bits.  A ragged row or
    a cell that float() rejects raises ValueError.
    """
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.rstrip("\n") for line in handle if line.strip()]
    if not rows:
        return header, np.array([])
    if len({row.count(",") for row in rows}) > 1:
        raise ValueError(f"{path}: rows of different lengths")
    cells = ",".join(rows).split(",")
    return header, np.array([cell or "nan" for cell in cells], dtype=float).reshape(len(rows), -1)
