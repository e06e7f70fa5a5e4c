"""Command-line front end: validate, simulate, analyze, cloud.

Exit codes: 0 success, 1 usage or validation failure, 2 numerical blow-up.
Exit 1 covers bad flags, an unreadable or malformed game file, `--y0`/`--ref`
input or sidecar, and an unwritable output path (commands raise; `main` prints
each as one `error:` line), and an analyze report whose checks fail.
Outputs are a CSV per trajectory (17 significant digits, so values round
trip exactly) plus a JSON sidecar with the game hash and run configuration;
analyze replays the run deterministically from the sidecar to recover the
payoff vectors the CSV does not store.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import re
import sys
from math import inf
from pathlib import Path
from time import perf_counter

import numpy as np

from .analysis import MONOTONE_SLACK, build_report, largest_drop, make_reference, volume_ratio
from .dynamics import SCHEMA_VERSION, IntegratorConfig, sample_payoff_ball, simulate
from .fileio import (
    game_fingerprint,
    holds_bool,
    json_field,
    load_game_file,
    read_json_object,
    read_trajectory_csv,
    write_trajectory_csv,
    write_trajectory_metadata,
)
from .games import (
    GameKind,
    MixedProfile,
    bipartite_partition,
    solve_2x2_fully_mixed_nash,
)
from .hamiltonian import ReadingsPlan

USAGE_ERROR = 1
BLOW_UP_ERROR = 2
CLOUD_SCHEMA_VERSION = 1  # of the *_cloud.json report


def _parse_inline_or_file(spec: str, flag: str):
    """The JSON value a flag names: inline JSON, or the JSON in the file
    @path, or at a bare path that names a file."""
    path = spec.removeprefix("@")
    if path == spec:
        try:
            return json.loads(spec)
        except json.JSONDecodeError as err:
            if not Path(spec).is_file():
                raise ValueError(f"{flag}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg} "
                                 f"(and no file {spec!r}; for a file, pass @path)") from None
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValueError(f"{flag}: cannot read {path}: {err.strerror}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{flag}: {path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from None


def _vectors(values, what: str, counts) -> tuple[np.ndarray, ...]:
    """JSON values as one finite float vector per agent, of the agents'
    strategy counts; what names their source and field."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of per-agent vectors, got {values!r}")
    if holds_bool(values):
        raise ValueError(f"{what} must hold numbers, never true or false")
    try:
        vectors = tuple(np.asarray(v, dtype=float) for v in values)
    except (TypeError, ValueError) as err:  # a string, an object, or ragged rows
        raise ValueError(f"{what} must hold numbers, one vector per agent ({err})") from None
    if not all(v.ndim == 1 and np.all(np.isfinite(v)) for v in vectors):
        raise ValueError(f"{what} must hold finite numbers, one vector per agent")
    if len(vectors) != len(counts):
        raise ValueError(f"{what} must hold one vector per agent, {len(counts)} in all, got {len(vectors)}")
    for agent, (v, k) in enumerate(zip(vectors, counts), 1):
        if len(v) != k:
            raise ValueError(f"{what}: agent {agent}'s vector must have length {k}, got {len(v)}")
    return vectors


def _resolve_y0(loaded, args):
    if getattr(args, "y0", None):
        return _vectors(_parse_inline_or_file(args.y0, "--y0"), "--y0", loaded.game.strategy_counts)
    if getattr(args, "seed", None) is not None:
        return tuple(v[0] for v in sample_payoff_ball(loaded.y0, args.radius, 1, args.seed))  # its one row
    return loaded.y0


def _resolve_ref(loaded, spec):
    if spec is None or spec == "none":
        return None
    if spec == "solve2x2":
        profile = solve_2x2_fully_mixed_nash(loaded.game)
        if profile is None:
            print("note: no fully mixed 2x2 equilibrium found; continuing without a reference")
            return None
    else:
        profile = MixedProfile(_vectors(_parse_inline_or_file(spec, "--ref"), "--ref", loaded.game.strategy_counts))
    return make_reference(loaded.game, profile)


def _note_rounded_horizon(config: IntegratorConfig):
    # steps * eta misses a horizon of whole steps by rounding only
    if abs(config.effective_horizon - config.horizon) > 1e-9 * config.eta:
        print(
            f"note: horizon {config.horizon:g} is not a whole number of steps of "
            f"{config.eta:g}; the run ends at t = {config.effective_horizon:g} "
            f"({config.steps} steps)",
            file=sys.stderr,
        )


def cmd_validate(args) -> int:
    loaded = load_game_file(args.game)
    kind = loaded.classification.kind
    parts = [kind.value.replace("_", "-")]
    if loaded.normalization:
        constants = ", ".join(f"c={c:g}" for c in loaded.normalization.values())
        parts.append(f"normalized to zero-sum ({constants})")
    partition = bipartite_partition(loaded.game)
    if partition is not None:
        parts.append("bipartite")
    elif kind == GameKind.COORDINATION:
        parts.append("non-bipartite: network energy identically zero")
    else:
        parts.append("non-bipartite")
    print(", ".join(parts))
    if args.json:
        doc = {
            "classification": kind.value,
            "sigma": loaded.game.sigma,
            "bipartite": partition is not None,
            "partition": [list(side) for side in partition] if partition else None,
            "normalization": loaded.normalization,
            "game_hash": game_fingerprint(loaded.game),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _out_paths(args, loaded):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(loaded.path).stem + "_" + args.scheme.replace(",", "-")
    return out / f"{stem}.csv", out / f"{stem}.meta.json"


def cmd_simulate(args) -> int:
    loaded = load_game_file(args.game)
    config = IntegratorConfig(args.scheme, args.eta, args.horizon, args.stride)
    _note_rounded_horizon(config)
    y0 = _resolve_y0(loaded, args)
    ref = _resolve_ref(loaded, args.ref)
    traj = simulate(loaded.game, loaded.regularizers, y0, config, ref=ref)
    csv_path, meta_path = _out_paths(args, loaded)
    start = perf_counter()
    write_trajectory_csv(traj, loaded.game, csv_path)
    traj.metadata["timing"]["io_s"] = perf_counter() - start
    write_trajectory_metadata(traj, game_fingerprint(loaded.game), meta_path)
    drift_abs, drift_rel = traj.energy_drift()
    print(
        f"wrote {csv_path} ({len(traj.t)} snapshots, final t={traj.t[-1]:g}, "
        f"scheme={config.scheme})"
    )
    if drift_abs == drift_abs:
        print(
            f"energy[{traj.metadata['energy_variant']}]: drift={drift_abs:.3e} "
            f"(relative {drift_rel:.3e})"
        )
    if config.scheme == "euler" and traj.energy.size and not np.any(np.isnan(traj.energy)):
        nondec = largest_drop(traj.energy) <= MONOTONE_SLACK
        total = float(traj.energy[-1] - traj.energy[0])
        print(f"euler energy non-decreasing: {nondec}, total increase {total:.6g}")
    diag = traj.metadata["diagnostics"]
    if diag["truncated"]:
        print(
            f"blow-up at step {diag['blow_up_step']} ({diag['reason']}); trajectory truncated",
            file=sys.stderr,
        )
        return BLOW_UP_ERROR
    return 0


def _replay(loaded, field, meta_path, ref):
    """The run the sidecar at meta_path records, replayed without readings;
    field(key, kinds) reads its keys.  Returns the trajectory, the energy
    variant to read, the reference (ref, else the sidecar's) and whether
    that reference is the sidecar's."""
    config = IntegratorConfig(field("scheme", (str,)), field("eta", (float,)), field("horizon", (float,)),
                              field("stride", (int,)))
    counts = loaded.game.strategy_counts
    y0 = _vectors(field("y0", (list,)), f"{meta_path}: sidecar field 'y0'", counts)
    recorded = field("ref", (), None)
    if recorded is None:
        same = ref is None
    else:
        recorded = _vectors(recorded, f"{meta_path}: sidecar field 'ref'", counts)
        if ref is None:
            ref = make_reference(loaded.game, MixedProfile(recorded))
        same = all(map(np.array_equal, ref, recorded))
    variant = field("energy_variant", (str, type(None)), None) or "auto"  # None: the run read no energy
    return simulate(loaded.game, loaded.regularizers, y0, config, energy="none"), variant, ref, same


def _same_cells(cells, values) -> bool:
    """Exact match of a CSV column and a replayed series: the same bits,
    an empty cell (NaN) matching NaN."""
    nan = np.isnan(values)
    return np.array_equal(np.isnan(cells), nan) and cells[~nan].tobytes() == values[~nan].tobytes()


def _csv_rows(csv_path, traj):
    """The CSV's rows when their number, times and strategies match the replayed run, else None."""
    try:
        _, data = read_trajectory_csv(csv_path)
    except (OSError, ValueError):
        return None
    xs = traj.strategy_matrix()
    if data.ndim != 2 or data.shape != (len(traj.t), 1 + xs.shape[1] + 3):
        return None
    if not (_same_cells(data[:, 0], traj.t) and _same_cells(data[:, 1 : 1 + xs.shape[1]], xs)):
        return None
    return data


def _readings_match(data, traj, with_coupling) -> bool:
    """The CSV's H, the third column from the end, and with_coupling its F
    and D, the last two, against the replay's readings."""
    if not _same_cells(data[:, -3], traj.energy):
        return False
    unread = np.full(len(traj.t), np.nan)
    return not with_coupling or all(
        _same_cells(data[:, j], unread if v is None else v) for j, v in ((-2, traj.fenchel), (-1, traj.bregman))
    )


def cmd_analyze(args) -> int:
    for flag, tol in (("--energy-tol", args.energy_tol), ("--fenchel-tol", args.fenchel_tol)):
        if not 0.0 <= tol < inf:  # nan fails both comparisons
            raise ValueError(f"{flag} must be a finite number >= 0, got {tol:g}")
    if args.recurrence_eps is not None and not 0.0 < args.recurrence_eps < inf:
        raise ValueError(f"--recurrence-eps must be a finite number > 0, got {args.recurrence_eps:g}")
    loaded = load_game_file(args.game)
    game_hash = game_fingerprint(loaded.game)
    ref = _resolve_ref(loaded, args.ref)
    failures = 0
    for csv_path in args.traj:
        csv_path = Path(csv_path)
        meta_path = csv_path.with_name(csv_path.stem + ".meta.json")  # as _out_paths names it
        meta = read_json_object(meta_path, "a sidecar", ValueError)
        field = functools.partial(json_field, meta, f"{meta_path}: sidecar", error=ValueError)
        if field("game_hash", (str,)) != game_hash:
            raise ValueError(f"{csv_path} was produced from a different game "
                             f"(hash {field('game_hash', (str,))} != {game_hash})")
        version = field("schema_version", (int,), None)
        if version != SCHEMA_VERSION:  # schema 3 changed the bits of single runs
            raise ValueError(f"{meta_path} has sidecar schema {version}; analyze replays schema "
                             f"{SCHEMA_VERSION} runs only: re-run simulate to record the run again")
        traj, variant, used_ref, same_ref = _replay(loaded, field, meta_path, ref)
        data = _csv_rows(csv_path, traj)  # t and x first: an edited file reads nothing
        if data is not None:
            ReadingsPlan(loaded.game, loaded.regularizers, variant, used_ref).record(traj)
        if data is None or not _readings_match(data, traj, same_ref):
            raise ValueError(f"{csv_path} does not match a deterministic replay of its "
                             "metadata (file edited or corrupted)")
        report = build_report(
            traj,
            loaded.game,
            loaded.regularizers,
            ref=used_ref,
            recurrence_epsilon=args.recurrence_eps,
            energy_tolerance=args.energy_tol,
            fenchel_tolerance=args.fenchel_tol,
        )
        out_dir = Path(args.out) if args.out else csv_path.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / (csv_path.stem + ".report.json")
        report_path.write_text(report.to_json() + "\n")
        status = "ok" if report.all_passed else "FAILED"
        print(f"{csv_path}: {status}; report written to {report_path}")
        for name, check in report.checks.items():
            print(
                f"  {name}: {'pass' if check['passed'] else 'FAIL'} "
                f"(value {check['value']:.3e}, tolerance {check['tolerance']:.1e})"
            )
        if not report.all_passed:
            failures += 1
    return USAGE_ERROR if failures else 0


def cmd_cloud(args) -> int:
    """One seeded cloud per scheme, one batch each, the schemes in turn: a scheme's timing is its own."""
    loaded = load_game_file(args.game)
    if args.n < 10:
        raise ValueError("cloud size must be at least 10")
    schemes = [s.strip() for s in args.scheme.split(",") if s.strip()]
    if not schemes:
        raise ValueError("--scheme names no scheme")
    # volume_ratio records only the start and the end, so no stride is asked for
    configs = [IntegratorConfig(scheme, args.eta, args.horizon, 1) for scheme in schemes]
    _note_rounded_horizon(configs[0])  # every scheme shares eta and horizon
    cloud = sample_payoff_ball(loaded.y0, args.radius, args.n, args.seed)
    results = {scheme: volume_ratio(loaded.game, loaded.regularizers, cloud, config)
               for scheme, config in zip(schemes, configs)}
    doc = {
        "schema_version": CLOUD_SCHEMA_VERSION,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "game_hash": game_fingerprint(loaded.game),
        "n": args.n,
        "radius": args.radius,
        "seed": args.seed,
        "eta": args.eta,
        "horizon": args.horizon,
        "volume": {
            scheme: {"ratio": rep.ratio, "note": rep.note} for scheme, rep in results.items()
        },
        "timing": {  # per scheme, one batched run of all n starts
            scheme: {key: rep.timing[key] for key in ("step_s", "steps_per_s")}
            for scheme, rep in results.items()
        },
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / (Path(loaded.path).stem + "_cloud.json")
    report_path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    for scheme, rep in results.items():
        print(f"{scheme}: volume ratio {rep.ratio:.4f} ({rep.note})")
    print(f"report written to {report_path}")
    return 0


# what float() reads with a minus sign in front: argparse's own pattern
# takes only -<digits> and -<digits>.<digits> for a negative number and any
# other argument that starts with a dash, -1e-3 and -inf among them, for an
# option, so a flag's value would never reach the flag's own check
_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER  # argparse's attribute on Python 3.10 to 3.13

    # argparse exits with 2 on usage errors; keep 2 reserved for blow-ups
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hamgame",
        description="Simulate and analyze regularized-leader dynamics on network games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="classify a game file and report its structure")
    p.add_argument("--game", required=True)
    p.add_argument("--json", action="store_true", help="also print a JSON summary")
    p.set_defaults(func=cmd_validate)

    def common_run_flags(p):
        p.add_argument("--scheme", default="rk4", help="euler, rk4, or leapfrog")
        p.add_argument("--eta", type=float, default=1e-3, help="integrator step size")
        p.add_argument("--horizon", type=float, default=10.0, help="simulated time span")

    p = sub.add_parser("simulate", help="run one trajectory and write CSV + metadata")
    p.add_argument("--game", required=True)
    common_run_flags(p)
    p.add_argument("--stride", type=int, default=10, help="record every n-th step")
    p.add_argument("--seed", type=int, default=None, help="draw y0 from a seeded ball")
    p.add_argument("--radius", type=float, default=0.1, help="radius of the seeded ball")
    p.add_argument("--y0", default=None, help="inline JSON (or @file / path) overriding the game file")
    p.add_argument("--ref", default="none", help="'solve2x2', 'none', or an inline/file profile")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="build invariance reports for recorded trajectories")
    p.add_argument("--game", required=True)
    p.add_argument("--traj", nargs="+", required=True, help="trajectory CSV files")
    p.add_argument("--ref", default="none")
    p.add_argument("--out", default=None, help="report directory (default: next to the CSV)")
    p.add_argument("--energy-tol", type=float, default=1e-6)
    p.add_argument("--fenchel-tol", type=float, default=1e-7)
    p.add_argument("--recurrence-eps", type=float, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cloud", help="evolve a cloud of starts and estimate volume change")
    p.add_argument("--game", required=True)
    common_run_flags(p)
    p.add_argument("--n", type=int, required=True, help="cloud size (>= 10)")
    p.add_argument("--radius", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_cloud)
    return parser


_parser = functools.cache(build_parser)  # one parser per process; parse_args leaves it as built


def main(argv=None) -> int:
    """Run one command; a ValueError or OSError it raises prints one `error:` line and returns 1."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
