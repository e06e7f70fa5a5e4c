"""The benchmark's workloads: inputs made from a seed, rounds of operations, checks.

A workload object is built once (set-up: game files loaded, inputs
generated from the seed), then runs whole rounds of the same operations.
`round` returns the seconds spent inside hamgame calls, the
trajectory-steps requested, the operations attempted and failed, and the
outputs; `check` verifies one round's outputs against properties the
method must have or against the plain-numpy references in reference.py,
and `digest` lets later rounds be compared with the checked one.

A workload's structure (agents, strategy counts, regularizer kinds, edges,
step counts) is fixed and the seed draws only values (matrices, scales,
starts), so every seed asks for the same work.

hamgame is called through the package and module attributes at call time
(`hg.simulate`, `hg.cli.main`), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference

SCHEMES = ("euler", "rk4", "leapfrog")

# Stated tolerances.  Each is set well above what correct code produces at
# the step sizes below and well below what a wrong field, choice map or
# stage combination produces.
RK4_ENERGY_DRIFT = 1e-8  # relative; fourth order, eta = 1e-2
LEAPFROG_ENERGY_DRIFT = 1e-3  # relative; second order, error bounded
LINEAR_RELATION = 1e-9  # y - (y0 + sum A X + b t): rounding only, Euler and RK4
LEAPFROG_LINEAR_RELATION = 1e-3  # leapfrog tracks the relation to O(eta^2)
REFERENCE_AGREEMENT = 1e-9  # rk4 prefix against reference.rk4 (summation order)
REFERENCE_PREFIX = 200  # steps of each rk4 run replayed by the reference
DISTANCE_LAW = 1e-8  # relative change of (p - 1/2)^2 + (q - 1/2)^2 under rk4
LEAPFROG_DISTANCE_LAW = 1e-4
RETURN_AT_2PI = 1e-6  # |x(2 pi) - x(0)|, rk4 on the unit-frequency rotation
LEAPFROG_RETURN_AT_2PI = 1e-3
MONOTONE_SLACK = 1e-12  # relative rounding allowance for Euler's non-decrease
RK4_FENCHEL_DRIFT = 1e-8  # max |F - F(0)| along the recorded rk4 run
F_EQUALS_D = 1e-9  # |F - D| on interior rows, relative to max(1, F)
BREGMAN_FORMULA = 1e-9  # CSV D against reference.bregman, relative to max(1, D)
VOLUME_CONSERVED = 0.02  # |ratio - 1| for rk4 and leapfrog clouds
EULER_VOLUME_GROWTH = 1.05  # Euler expands: its ratio must exceed this


@dataclass
class Round:
    seconds: float  # wall time inside hamgame calls
    steps: int  # trajectory-steps requested
    snapshots: int  # snapshots the requests record
    attempted: int
    failed: int
    outputs: object = None


@dataclass
class Checks:
    """Named checks; keeps the worst value seen for each name."""

    results: dict = field(default_factory=dict)

    def _put(self, name, value, bound, passed):
        old = self.results.get(name)
        if old is None or (old[2] and not passed) or (old[2] == passed and value > old[0]):
            self.results[name] = (value, bound, passed)

    def at_most(self, name, value, bound):
        value = float(value)
        self._put(name, value, bound, value <= bound)  # False for NaN

    def above(self, name, value, bound):
        value = float(value)
        self._put(name, -value, -bound, value > bound)

    def true(self, name, ok):
        self._put(name, 0.0 if ok else 1.0, 0.0, bool(ok))

    @property
    def failures(self):
        return [n for n, (_, _, ok) in self.results.items() if not ok]

    def lines(self):
        for name, (value, bound, ok) in sorted(self.results.items()):
            yield f"check {name}: {'pass' if ok else 'FAIL'} (worst {abs(value):.3e}, bound {abs(bound):.1e})"


def _timed(fn, *args, **kwargs):
    """(result, seconds) of one operation; an operation that raises returns None.

    The traceback goes to standard error, and the caller counts the
    operation as failed, so a broken program yields a result line with
    `correct` false instead of a crash.
    """
    start = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:
        traceback.print_exc()
        result = None
    return result, perf_counter() - start


def _cli(hg, argv):
    """hamgame's command line in-process, its output discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return hg.cli.main([str(a) for a in argv])


def _zero_sum_network(rng, counts, edges):
    """Random zero-sum matrices on the given edges; the uniform profile is an equilibrium.

    Every matrix has zero row and column sums, so uniform play earns every
    agent zero against each neighbour and no deviation gains.
    """
    payoffs = {}
    for i, j in edges:
        a = rng.normal(size=(counts[i], counts[j]))
        a = a - a.mean(axis=1, keepdims=True)
        a = a - a.mean(axis=0, keepdims=True)
        payoffs[(i, j)] = a
        payoffs[(j, i)] = -a.T
    return payoffs


def _ring(n, *chords):
    """Edges of an n-cycle plus chords."""
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)] + list(chords)


def _game_file_doc(counts, kinds, scales, y0, payoffs):
    return {
        "agents": [
            {"id": i + 1, "strategies": int(k), "regularizer": kind, "scale": float(s), "y0": list(map(float, v))}
            for i, (k, kind, s, v) in enumerate(zip(counts, kinds, scales, y0))
        ],
        "edges": [
            {"i": i + 1, "j": j + 1, "A": a.tolist()} for (i, j), a in sorted(payoffs.items())
        ],
        "sigma": -1,
    }


def _snapshots(steps, stride):
    """Snapshots simulate records: every stride-th step, the first and the last."""
    return steps // stride + 1 + (steps % stride != 0)


def _reg_params(regs):
    return [(r.kind, r.domain, r.scale) for r in regs]


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------


class Orbit:
    """Single trajectories at a sparse stride through `simulate`, three schemes.

    Problems: euclidean Matching Pennies from games/ (seeded start on a
    circle around (1/2, 1/2)); a six-agent zero-sum network with entropy and
    euclidean simplex regularizers of dimensions 2-5 and seeded scales; the
    affine box-domain game that `reduce_2x2_to_generalized` makes of a
    seeded 2x2 zero-sum game with one entropy and one euclidean player.
    """

    # Matching Pennies: 640 steps make exactly one period 2 pi, and the
    # stride puts a snapshot there.
    MP_ETA, MP_STEPS, MP_STRIDE = 2 * math.pi / 640, 800, 32
    NET_ETA, NET_STEPS, NET_STRIDE = 1e-2, 500, 50
    NET_COUNTS, NET_EDGES = (2, 3, 4, 5, 3, 2), _ring(6, (0, 3), (1, 4))
    NET_KINDS = ("entropy", "euclidean") * 3
    RED_ETA, RED_STEPS, RED_STRIDE = 1e-2, 1000, 50

    def __init__(self, hg, seed, root: Path, workdir: Path):
        self.hg = hg
        rng = np.random.default_rng(seed)
        problems = []

        mp = hg.load_game_file(root / "games" / "matching_pennies.json")
        if [(r.kind, r.scale) for r in mp.regularizers] != [("euclidean", 1.0)] * 2:
            raise ValueError("games/matching_pennies.json is no longer euclidean Matching Pennies")
        radius, angle = rng.uniform(0.1, 0.3), rng.uniform(0.0, 2 * math.pi)
        u0, v0 = radius * math.cos(angle), radius * math.sin(angle)
        # x = projection of y / 2 onto the simplex, so y = 2 x at interior x
        y0 = (2 * np.array([0.5 + u0, 0.5 - u0]), 2 * np.array([0.5 + v0, 0.5 - v0]))
        half = (np.full(2, 0.5), np.full(2, 0.5))
        problems.append(("mp", mp.game, mp.regularizers, y0, half, self.MP_ETA, self.MP_STEPS, self.MP_STRIDE))

        counts, kinds = self.NET_COUNTS, self.NET_KINDS
        scales = rng.uniform(0.5, 2.0, size=len(counts))
        game = hg.NetworkGame(counts, _zero_sum_network(rng, counts, self.NET_EDGES), sigma=-1)
        regs = tuple(hg.Regularizer(kind, dim=k, scale=float(s)) for kind, k, s in zip(kinds, counts, scales))
        y0 = tuple(0.1 * rng.normal(size=k) for k in counts)
        uniform = tuple(np.full(k, 1.0 / k) for k in counts)
        problems.append(("network", game, regs, y0, uniform, self.NET_ETA, self.NET_STEPS, self.NET_STRIDE))

        a = rng.uniform(0.5, 2.0) * (np.array([[1.0, -1.0], [-1.0, 1.0]]) + 0.3 * rng.uniform(-1, 1, size=(2, 2)))
        two = hg.NetworkGame((2, 2), {(0, 1): a, (1, 0): -a.T}, sigma=-1)
        two_regs = (hg.Regularizer("entropy", dim=2), hg.Regularizer("euclidean", dim=2))
        red = hg.reduce_2x2_to_generalized(two, two_regs, tuple(0.1 * rng.normal(size=2) for _ in range(2)))
        problems.append(("reduced", red.game, red.regularizers, red.y0, None, self.RED_ETA, self.RED_STEPS, self.RED_STRIDE))
        self.problems = problems

    def round(self) -> Round:
        hg, seconds, steps, snapshots, outputs = self.hg, 0.0, 0, 0, []
        for name, game, regs, y0, ref, eta, n, stride in self.problems:
            for scheme in SCHEMES:
                config = hg.IntegratorConfig(scheme, eta, n * eta, stride)
                traj, dt = _timed(hg.simulate, game, regs, y0, config, ref=ref)
                seconds += dt
                steps += n
                snapshots += _snapshots(n, stride)
                outputs.append((name, scheme, traj))
        failed = sum(traj is None for _, _, traj in outputs)
        return Round(seconds, steps, snapshots, len(outputs), failed, outputs)

    def digest(self, outputs):
        return _digest(*[t and (len(t.states), np.concatenate(t.states[-1].y).tobytes()) for _, _, t in outputs])

    def check(self, outputs, checks: Checks):
        problems = {p[0]: p for p in self.problems}
        for name, scheme, traj in outputs:
            _, game, regs, y0, ref, eta, n, stride = problems[name]
            tag = f"orbit.{name}.{scheme}"
            checks.true(f"{tag}.completed", traj is not None)
            if traj is None:
                continue
            checks.true(f"{tag}.reaches_horizon",
                        len(traj.states) == _snapshots(n, stride) and abs(traj.states[-1].t - n * eta) <= 1e-9 * n * eta)
            drift = getattr(game, "b", {}) or {}
            worst = 0.0
            for s in traj.states:
                z = reference.motion_from_positions(y0, game.payoffs, drift, s.X, s.t)
                for zi, yi in zip(z, s.y):
                    worst = max(worst, float(np.max(np.abs(zi - yi))) / max(1.0, float(np.max(np.abs(yi)))))
            checks.at_most(f"orbit.{scheme}.linear_relation", worst,
                           LEAPFROG_LINEAR_RELATION if scheme == "leapfrog" else LINEAR_RELATION)
            if scheme != "euler":
                rel = traj.energy_drift()[1]
                checks.at_most(f"orbit.{scheme}.energy_drift", rel,
                               RK4_ENERGY_DRIFT if scheme == "rk4" else LEAPFROG_ENERGY_DRIFT)
            if scheme == "rk4":
                self._check_reference(regs, game.payoffs, drift, y0, eta, stride, traj, checks)
            if name == "mp" and scheme != "euler":
                self._check_rotation(traj, eta, stride, scheme, checks)

    @staticmethod
    def _check_reference(regs, payoffs, drift, y0, eta, stride, traj, checks):
        steps = min(REFERENCE_PREFIX, (len(traj.states) - 1) * stride)
        ref = reference.rk4(_reg_params(regs), payoffs, drift, y0, eta, steps)
        worst = 0.0
        for k in range(1, steps // stride + 1):
            y, X = ref[k * stride - 1]
            s = traj.states[k]
            for a, b in zip(y + X, s.y + s.X):
                worst = max(worst, float(np.max(np.abs(a - b))))
        checks.at_most("orbit.rk4.reference_agreement", worst, REFERENCE_AGREEMENT)

    @staticmethod
    def _check_rotation(traj, eta, stride, scheme, checks):
        # Interior euclidean Matching Pennies: (p - 1/2, q - 1/2) rotates
        # at unit angular frequency, so its length is constant and it
        # returns at t = 2 pi.
        pq = np.array([[s.x[0][0] - 0.5, s.x[1][0] - 0.5] for s in traj.states])
        r2 = np.sum(pq * pq, axis=1)
        law = float(np.max(np.abs(r2 - r2[0]))) / r2[0]
        checks.at_most(f"orbit.mp.{scheme}.distance_law", law,
                       DISTANCE_LAW if scheme == "rk4" else LEAPFROG_DISTANCE_LAW)
        k = round(2 * math.pi / (eta * stride))
        back = float(np.max(np.abs(pq[k] - pq[0]))) if abs(traj.states[k].t - 2 * math.pi) < 1e-9 else math.inf
        checks.at_most(f"orbit.mp.{scheme}.return_at_2pi", back,
                       RETURN_AT_2PI if scheme == "rk4" else LEAPFROG_RETURN_AT_2PI)


# ---------------------------------------------------------------------------


def _read_csv(path):
    """Header and float rows of a trajectory CSV (empty cells become NaN)."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    data = np.array([[float(c) if c else math.nan for c in row] for row in rows[1:]])
    return rows[0], data


def _solve_2x2(a_row, a_col):
    """Fully mixed equilibrium of a 2x2 bimatrix game by indifference.

    a_row is agent 1's payoff matrix (its strategies by agent 2's), a_col
    agent 2's; each agent mixes so that the other is indifferent.
    """

    def weight(m):  # first-strategy weight of the opponent making m's rows equal
        return (m[1, 1] - m[0, 1]) / (m[0, 0] - m[0, 1] - m[1, 0] + m[1, 1])

    q, p = weight(a_row), weight(a_col)
    return [np.array([p, 1 - p]), np.array([q, 1 - q])]


class Recorded:
    """`hamgame simulate --stride 1 --ref ...` then `hamgame analyze` on the CSV.

    An Euler run of games/matching_pennies_replicator.json against its 2x2
    equilibrium, and an rk4 run of a generated five-agent zero-sum network
    file (entropy and euclidean agents, seeded scales) against its uniform
    equilibrium.  One more operation feeds `analyze` a copy of the Euler
    CSV with one middle row's strategy edited and expects exit code 1; its
    input does not depend on the seed.
    """

    EULER_GAME = Path("games") / "matching_pennies_replicator.json"
    EULER_ETA, EULER_STEPS = 0.1, 300
    RK4_ETA, RK4_STEPS = 2e-2, 150
    NET_COUNTS, NET_EDGES = (2, 3, 4, 3, 2), _ring(5, (0, 2))
    NET_KINDS = ("entropy", "euclidean", "entropy", "euclidean", "entropy")

    def __init__(self, hg, seed, root: Path, workdir: Path):
        self.hg = hg
        rng = np.random.default_rng(seed)
        self.euler_game = root / self.EULER_GAME
        with open(self.euler_game) as handle:
            doc = json.load(handle)
        self.euler_regs = [(a["regularizer"], "simplex", float(a.get("scale", 1.0))) for a in doc["agents"]]
        mats = {(e["i"], e["j"]): np.array(e["A"], dtype=float) for e in doc["edges"]}
        self.euler_ref = _solve_2x2(mats[(1, 2)], mats[(2, 1)])

        counts, kinds = self.NET_COUNTS, self.NET_KINDS
        scales = rng.uniform(0.5, 2.0, size=len(counts))
        y0 = [0.1 * rng.normal(size=k) for k in counts]
        payoffs = _zero_sum_network(rng, counts, self.NET_EDGES)
        self.network_game = workdir / "network.json"
        self.network_game.write_text(json.dumps(_game_file_doc(counts, kinds, scales, y0, payoffs)))
        self.network_regs = [(kind, "simplex", float(s)) for kind, s in zip(kinds, scales)]
        self.uniform = [np.full(k, 1.0 / k) for k in counts]
        self.uniform_file = workdir / "uniform.json"
        self.uniform_file.write_text(json.dumps([v.tolist() for v in self.uniform]))

        self.euler_csv = workdir / "euler" / f"{self.euler_game.stem}_euler.csv"
        self.rk4_csv = workdir / "rk4" / f"{self.network_game.stem}_rk4.csv"
        self.tampered_csv = workdir / "tampered" / self.euler_csv.name

    def _runs(self):
        return (
            (self.euler_game, "euler", self.EULER_ETA, self.EULER_STEPS, "solve2x2", self.euler_csv),
            (self.network_game, "rk4", self.RK4_ETA, self.RK4_STEPS, f"@{self.uniform_file}", self.rk4_csv),
        )

    def round(self) -> Round:
        hg, seconds, steps, snapshots, codes, failed = self.hg, 0.0, 0, 0, [], 0
        for game, scheme, eta, n, ref, csv_path in self._runs():
            csv_path.unlink(missing_ok=True)  # a failed command must not leave the last round's file
            code, dt = _timed(_cli, hg, [
                "simulate", "--game", game, "--scheme", scheme, "--eta", repr(eta),
                "--horizon", repr(n * eta), "--stride", 1, "--ref", ref, "--out", csv_path.parent])
            seconds += dt
            codes.append(code)
            code2, dt = _timed(_cli, hg, ["analyze", "--game", game, "--traj", csv_path, "--ref", ref])
            seconds += dt
            codes.append(code2)
            failed += (code != 0) + (code2 != 0)
            steps += n
            snapshots += n + 1
        code, dt = None, 0.0
        if self.euler_csv.exists():
            self._tamper()
            code, dt = _timed(_cli, hg, ["analyze", "--game", self.euler_game, "--traj", self.tampered_csv,
                                         "--ref", "solve2x2"])
        seconds += dt
        codes.append(code)
        failed += code != 1  # the edited file must be rejected
        return Round(seconds, steps, snapshots, len(codes), failed, codes)

    def _tamper(self):
        """Copy the Euler CSV and sidecar; swap agent 1's strategies in the middle row."""
        self.tampered_csv.parent.mkdir(parents=True, exist_ok=True)
        meta = self.euler_csv.with_suffix("").with_suffix(".meta.json")
        shutil.copyfile(meta, self.tampered_csv.with_suffix("").with_suffix(".meta.json"))
        lines = self.euler_csv.read_text().splitlines(keepends=True)
        middle = len(lines) // 2
        cells = lines[middle].rstrip("\n").split(",")
        if cells[1] == cells[2]:
            raise ValueError("middle row has equal strategies; swapping them edits nothing")
        cells[1], cells[2] = cells[2], cells[1]
        lines[middle] = ",".join(cells) + "\n"
        self.tampered_csv.write_text("".join(lines))

    def digest(self, codes):
        return _digest(codes, *[p.read_bytes() if p.exists() else None for p in (self.euler_csv, self.rk4_csv)])

    def check(self, codes, checks: Checks):
        checks.true("recorded.commands_exit_0", codes[:4] == [0, 0, 0, 0])
        expected = {"euler": ("energy_nondecreasing", "fenchel_nondecreasing"),
                    "rk4": ("energy_invariance", "fenchel_invariance")}
        for game, scheme, eta, n, _, csv_path in self._runs():
            report_path = csv_path.with_name(csv_path.stem + ".report.json")
            report = json.loads(report_path.read_text()) if report_path.exists() else {"checks": {}}
            names = report["checks"]
            checks.true(f"recorded.{scheme}.report_checks_pass",
                        set(expected[scheme]) <= set(names) and all(c["passed"] for c in names.values()))
            checks.true(f"recorded.{scheme}.csv_written", csv_path.exists())
            if not csv_path.exists():
                continue
            header, data = _read_csv(csv_path)
            checks.true(f"recorded.{scheme}.rows",
                        data.shape[0] == n + 1 and abs(data[-1, 0] - n * eta) <= 1e-9 * n * eta)
            regs = self.euler_regs if scheme == "euler" else self.network_regs
            ref = self.euler_ref if scheme == "euler" else self.uniform
            self._check_rows(scheme, header, data, regs, ref, checks)

    @staticmethod
    def _check_rows(scheme, header, data, regs, ref, checks):
        H, F, D = (data[:, header.index(c)] for c in ("H", "F", "D"))
        bounds = np.cumsum([1] + [len(r) for r in ref])
        xs = [data[:, a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        if scheme == "euler":
            for label, series in (("H", H), ("F", F)):
                drop = np.maximum(series[:-1] - series[1:], 0.0) / np.maximum(1.0, np.abs(series[:-1]))
                checks.at_most(f"recorded.euler.{label}_nondecreasing", np.max(drop), MONOTONE_SLACK)
        else:
            checks.at_most("recorded.rk4.fenchel_constant", np.max(np.abs(F - F[0])), RK4_FENCHEL_DRIFT)
        interior = np.all(np.concatenate(xs, axis=1) > 0.0, axis=1) & ~np.isnan(D)
        checks.true(f"recorded.{scheme}.interior_rows", np.any(interior))
        gap = np.abs(F - D)[interior] / np.maximum(1.0, np.abs(F[interior]))
        checks.at_most(f"recorded.{scheme}.F_equals_D", np.max(gap, initial=0.0), F_EQUALS_D)
        own = np.array([
            sum(reference.bregman(reg, xr, x[row]) for reg, xr, x in zip(regs, ref, xs))
            for row in np.nonzero(interior)[0]
        ])
        err = np.abs(D[interior] - own) / np.maximum(1.0, np.abs(own))
        checks.at_most(f"recorded.{scheme}.D_matches_formula", np.max(err, initial=0.0), BREGMAN_FORMULA)


# ---------------------------------------------------------------------------


class Cloud:
    """`hamgame cloud` on a generated four-agent zero-sum game file.

    N starts in a ball of radius 0.01 around the file's seeded y0, evolved
    as one batch per scheme by rk4, leapfrog and euler, with the command's
    own thread pool (HAMGAME_THREADS as the environment leaves it; unset in
    the benchmark's runs).
    """

    N, RADIUS, ETA, STEPS = 2000, 0.01, 0.05, 100
    COUNTS, EDGES = (3, 2, 4, 3), _ring(4, (0, 2))
    KINDS = ("entropy", "euclidean") * 2

    def __init__(self, hg, seed, root: Path, workdir: Path):
        self.hg, self.seed = hg, seed
        rng = np.random.default_rng(seed)
        counts, kinds = self.COUNTS, self.KINDS
        y0 = [0.1 * rng.normal(size=k) for k in counts]
        payoffs = _zero_sum_network(rng, counts, self.EDGES)
        self.game_file = workdir / "cloud.json"
        self.game_file.write_text(json.dumps(_game_file_doc(counts, kinds, [1.0] * len(counts), y0, payoffs)))
        self.out = workdir / "cloud"
        self.report = self.out / f"{self.game_file.stem}_cloud.json"

    def round(self) -> Round:
        self.report.unlink(missing_ok=True)
        code, dt = _timed(_cli, self.hg, [
            "cloud", "--game", self.game_file, "--n", self.N, "--radius", repr(self.RADIUS),
            "--seed", self.seed, "--scheme", ",".join(SCHEMES), "--eta", repr(self.ETA),
            "--horizon", repr(self.STEPS * self.ETA), "--out", self.out])
        volume = json.loads(self.report.read_text())["volume"] if code == 0 else None
        snapshots = len(SCHEMES) * _snapshots(self.STEPS, 10)  # the command's default stride is 10
        return Round(dt, len(SCHEMES) * self.STEPS * self.N, snapshots, 1, int(code != 0), (code, volume))

    def digest(self, outputs):
        return _digest(outputs)

    def check(self, outputs, checks: Checks):
        code, volume = outputs
        checks.true("cloud.exit_0", code == 0 and volume is not None)
        if volume is None:
            return
        for scheme in ("rk4", "leapfrog"):
            checks.at_most(f"cloud.{scheme}.volume_conserved", abs(volume[scheme]["ratio"] - 1.0), VOLUME_CONSERVED)
        checks.above("cloud.euler.volume_grows", volume["euler"]["ratio"], EULER_VOLUME_GROWTH)


WORKLOADS = {"orbit": Orbit, "recorded": Recorded, "cloud": Cloud}
