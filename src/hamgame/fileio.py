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


_KINDS = {str: "a string", int: "an integer", float: "a number", list: "a list", type(None): "null"}


def json_field(obj, where: str, key: str, kinds: tuple, default=Ellipsis, error=GameFileError):
    """obj[key] as one of kinds, the types of _KINDS as json.load gives them
    (float: any number, never true or false; (): any value), or default if
    the key is absent (Ellipsis: the key is required).  where names the file
    and the place of obj, as "g.json: agents[0]", and starts each message."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object, got {type(obj).__name__}")
    value = obj.get(key, default)
    types = (*kinds, int) if float in kinds else kinds
    if value is Ellipsis or key in obj and kinds and (isinstance(value, bool) or not isinstance(value, types)):
        got = "nothing" if value is Ellipsis else repr(value)
        raise error(f"{where} field {key!r} must be {' or '.join(map(_KINDS.get, kinds))}, got {got}")
    return value


def read_json_object(path, what: str, error=GameFileError) -> dict:
    """The JSON object in the file at path; what names the document, as "a sidecar"."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise error(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object, got {type(doc).__name__}")
    return doc


def holds_bool(value) -> bool:
    """Whether a JSON value is true or false, or a list that holds one at any
    depth: numpy would read it as 1.0 or 0.0."""
    return isinstance(value, bool) or isinstance(value, list) and any(map(holds_bool, value))


def _finite(values, where: str, field: str, shape: tuple) -> np.ndarray:
    if holds_bool(values):
        raise GameFileError(f"{where}: {field!r} must hold numbers, never true or false")
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as err:  # a string, an object, or ragged rows
        raise GameFileError(f"{where}: {field!r} must be numbers in a rectangular array ({err})") from None
    # json.load reads NaN, Infinity and -Infinity literals
    if not np.all(np.isfinite(a)):
        raise GameFileError(f"{where}: {field!r} must be finite")
    if a.shape != shape:
        raise GameFileError(f"{where}: {field!r} must have shape {shape}, got {a.shape}")
    return a


def load_game_file(path) -> LoadedGame:
    path = str(path)
    raw = read_json_object(path, "a game file")
    agents = json_field(raw, path, "agents", (list,))
    if not agents:
        raise GameFileError(f"{path} field 'agents' must be a non-empty list, got []")
    ids, counts, regs, y0 = [], [], [], []
    for pos, agent in enumerate(agents):
        where = f"{path}: agents[{pos}]"
        agent_id = json_field(agent, where, "id", (int, str))
        if agent_id in ids:
            raise GameFileError(f"{where}: duplicate agent id {agent_id!r}")
        k = json_field(agent, where, "strategies", (int,))
        if k < 1:
            raise GameFileError(f"{where} field 'strategies' must be a positive integer, got {k}")
        kind = json_field(agent, where, "regularizer", (str,))
        if kind not in KINDS:
            raise GameFileError(f"{where}: unknown regularizer {kind!r}")
        vec = _finite(json_field(agent, where, "y0", (), [0.0] * k), where, "y0", (k,))
        scale = float(_finite(json_field(agent, where, "scale", (float,), 1.0), where, "scale", ()))
        if scale <= 0:
            raise GameFileError(f"{where} field 'scale' must be a positive number, got {scale:g}")
        ids.append(agent_id)
        counts.append(k)
        regs.append(Regularizer(kind, dim=k, scale=scale))
        y0.append(vec)
    index = {agent_id: pos for pos, agent_id in enumerate(ids)}

    payoffs = {}
    for pos, edge in enumerate(json_field(raw, path, "edges", (list,), [])):
        where = f"{path}: edges[{pos}]"
        i_id, j_id = (json_field(edge, where, key, (int, str)) for key in ("i", "j"))
        for agent_id in (i_id, j_id):
            if agent_id not in index:
                raise GameFileError(f"{where}: unknown agent id {agent_id!r}")
        i, j = index[i_id], index[j_id]
        if i == j:
            raise GameFileError(f"{where}: self edge on agent {i_id!r}")
        if (i, j) in payoffs:
            raise GameFileError(f"{where}: duplicate edge ({i_id!r}, {j_id!r})")
        payoffs[(i, j)] = _finite(json_field(edge, where, "A", (list,)), where, "A", (counts[i], counts[j]))

    declared = json_field(raw, path, "sigma", (float, str), "auto")
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
        raise GameFileError(f"{path} field 'sigma' must be -1, 1 or \"auto\", got {declared!r}")
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
