"""Command-line interface: validation, simulation runs, reports, clouds."""

import json
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from hamgame import GameFileError, GeneralizedGame, IntegratorConfig, game_fingerprint, load_game_file
from hamgame.cli import main

from conftest import MP_MATRIX, triangle_zero_sum

GAMES = Path(__file__).resolve().parents[1] / "games"


def write_game(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def mp_file(tmp_path, sigma=-1, y0=((0.4, -0.4), (0.0, 0.0)), regularizer="euclidean"):
    doc = {
        "agents": [
            {"id": 1, "strategies": 2, "regularizer": regularizer, "y0": list(y0[0])},
            {"id": 2, "strategies": 2, "regularizer": regularizer, "y0": list(y0[1])},
        ],
        "edges": [
            {"i": 1, "j": 2, "A": MP_MATRIX.tolist()},
            {"i": 2, "j": 1, "A": (-MP_MATRIX.T).tolist()},
        ],
        "sigma": sigma,
    }
    return write_game(tmp_path / "mp.json", doc)


def constant_sum_file(tmp_path):
    doc = {
        "agents": [
            {"id": 1, "strategies": 2, "regularizer": "entropy"},
            {"id": 2, "strategies": 2, "regularizer": "entropy"},
        ],
        "edges": [
            {"i": 1, "j": 2, "A": [[2, 0], [0, 2]]},
            {"i": 2, "j": 1, "A": [[0, 2], [2, 0]]},
        ],
        "sigma": "auto",
    }
    return write_game(tmp_path / "csum.json", doc)


def coordination_triangle_file(tmp_path):
    rng = np.random.default_rng(2)
    a01, a12, a02 = (rng.normal(size=(2, 2)) for _ in range(3))
    doc = {
        "agents": [
            {"id": i, "strategies": 2, "regularizer": "entropy", "y0": [0.1 * i, -0.1]}
            for i in (1, 2, 3)
        ],
        "edges": [
            {"i": 1, "j": 2, "A": a01.tolist()},
            {"i": 2, "j": 1, "A": a01.T.tolist()},
            {"i": 2, "j": 3, "A": a12.tolist()},
            {"i": 3, "j": 2, "A": a12.T.tolist()},
            {"i": 1, "j": 3, "A": a02.tolist()},
            {"i": 3, "j": 1, "A": a02.T.tolist()},
        ],
        "sigma": 1,
    }
    return write_game(tmp_path / "tri.json", doc)


class TestLoader:
    def test_round_trip(self, tmp_path):
        loaded = load_game_file(mp_file(tmp_path))
        assert loaded.game.sigma == -1
        np.testing.assert_array_equal(loaded.game.matrix(0, 1), MP_MATRIX)
        assert loaded.regularizers[0].kind == "euclidean"
        np.testing.assert_array_equal(loaded.y0[0], [0.4, -0.4])

    def test_sigma_contradiction_rejected(self, tmp_path):
        path = mp_file(tmp_path, sigma=1)
        with pytest.raises(GameFileError, match="contradicts"):
            load_game_file(path)

    def test_auto_normalizes_constant_sum(self, tmp_path):
        loaded = load_game_file(constant_sum_file(tmp_path))
        assert loaded.game.sigma == -1
        assert loaded.normalization == {"1-2": 2.0}
        np.testing.assert_allclose(loaded.game.matrix(1, 0), [[-2, 0], [0, -2]])

    def test_all_zero_game_accepts_either_sigma(self, tmp_path):
        for sigma in (-1, 1):
            doc = {
                "agents": [
                    {"id": "a", "strategies": 2, "regularizer": "entropy"},
                    {"id": "b", "strategies": 2, "regularizer": "entropy"},
                ],
                "edges": [{"i": "a", "j": "b", "A": [[0, 0], [0, 0]]}],
                "sigma": sigma,
            }
            loaded = load_game_file(write_game(tmp_path / f"z{sigma}.json", doc))
            assert loaded.game.sigma == sigma

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"agents": [,]}')
        with pytest.raises(GameFileError, match="line 1"):
            load_game_file(str(path))

    def test_shape_error_names_edge(self, tmp_path):
        doc = {
            "agents": [
                {"id": 1, "strategies": 2, "regularizer": "entropy"},
                {"id": 2, "strategies": 3, "regularizer": "entropy"},
            ],
            "edges": [{"i": 1, "j": 2, "A": [[1, 2], [3, 4]]}],
        }
        with pytest.raises(GameFileError, match=r"edges\[0\]"):
            load_game_file(write_game(tmp_path / "bad.json", doc))

    def test_duplicate_edge_rejected(self, tmp_path):
        doc = {
            "agents": [
                {"id": 1, "strategies": 2, "regularizer": "entropy"},
                {"id": 2, "strategies": 2, "regularizer": "entropy"},
            ],
            "edges": [
                {"i": 1, "j": 2, "A": [[0, 0], [0, 0]]},
                {"i": 1, "j": 2, "A": [[1, 0], [0, 1]]},
            ],
        }
        with pytest.raises(GameFileError, match="duplicate edge"):
            load_game_file(write_game(tmp_path / "dup.json", doc))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["A", "y0", "scale"])
    def test_non_finite_value_names_its_field(self, tmp_path, field, bad):
        # json reads the NaN, Infinity and -Infinity literals json.dumps writes
        doc = json.loads(Path(mp_file(tmp_path)).read_text())
        if field == "A":
            doc["edges"][1]["A"][0][1] = bad
        else:
            doc["agents"][1][field] = [0.0, bad] if field == "y0" else bad
        path = write_game(tmp_path / "bad.json", doc)
        assert ("NaN" if bad != bad else "Infinity") in Path(path).read_text()
        where = r"edges\[1\]" if field == "A" else r"agents\[1\]"
        with pytest.raises(GameFileError, match=f"{where}: '{field}' must be finite"):
            load_game_file(path)

    @pytest.mark.parametrize("field,value", [
        ("y0", ["a", "b"]),
        ("y0", {"first": 1}),
        ("A", [[1, 2], [3]]),
        ("A", [[1, "x"], [3, 4]]),
    ])
    def test_malformed_value_names_its_field(self, tmp_path, capsys, field, value):
        doc = json.loads(Path(mp_file(tmp_path)).read_text())
        if field == "A":
            doc["edges"][1]["A"] = value
        else:
            doc["agents"][1]["y0"] = value
        path = write_game(tmp_path / "bad.json", doc)
        where = r"edges\[1\]" if field == "A" else r"agents\[1\]"
        with pytest.raises(GameFileError, match=f"{where}: '{field}' must be numbers in a rectangular array"):
            load_game_file(path)
        assert main(["validate", "--game", path]) == 1
        assert f"'{field}' must be numbers" in capsys.readouterr().err

    def test_sigma_as_a_float_loads(self, tmp_path):
        assert load_game_file(mp_file(tmp_path, sigma=-1.0)).game.sigma == -1
        doc = json.loads(Path(coordination_triangle_file(tmp_path)).read_text())
        doc["sigma"] = 1.0
        assert load_game_file(write_game(tmp_path / "tri1.json", doc)).game.sigma == 1

    def test_auto_sigma_tags_a_coordination_game(self, tmp_path):
        doc = json.loads(Path(coordination_triangle_file(tmp_path)).read_text())
        doc["sigma"] = "auto"
        loaded = load_game_file(write_game(tmp_path / "auto.json", doc))
        assert loaded.classification.kind.value == "coordination" and loaded.game.sigma == 1


def edit_game(make, edit):
    """A game file made by make(tmp_path), once edit(doc) changed its JSON."""
    def path(tmp_path):
        doc = json.loads(Path(make(tmp_path)).read_text())
        edit(doc)
        return write_game(tmp_path / "bad.json", doc)
    return path


def set_in(*keys, value):
    """An edit that sets doc[keys[0]]...[keys[-1]] to value."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


@pytest.mark.parametrize("game, message", [
    pytest.param(edit_game(mp_file, set_in("agents", value=[1, 2])), "agents[0] must be a JSON object, got int",
                 id="agent-not-an-object"),
    pytest.param(edit_game(mp_file, set_in("edges", 1, value=[2, 1])), "edges[1] must be a JSON object, got list",
                 id="edge-not-an-object"),
    pytest.param(edit_game(mp_file, set_in("edges", value=None)), "field 'edges' must be a list, got None",
                 id="edges-null"),
    pytest.param(edit_game(mp_file, set_in("edges", value={"a": 1})), "field 'edges' must be a list, got {'a': 1}",
                 id="edges-an-object"),
    pytest.param(edit_game(mp_file, set_in("agents", value=[])), "field 'agents' must be a non-empty list, got []",
                 id="agents-empty"),
    pytest.param(edit_game(mp_file, set_in("agents", 0, "id", value=[1])),
                 "agents[0] field 'id' must be an integer or a string, got [1]", id="id-a-list"),
    pytest.param(edit_game(mp_file, set_in("agents", 0, "id", value={"n": 1})),
                 "agents[0] field 'id' must be an integer or a string, got {'n': 1}", id="id-an-object"),
    pytest.param(edit_game(mp_file, set_in("agents", 0, "id", value=True)),
                 "agents[0] field 'id' must be an integer or a string, got True", id="id-true"),
    pytest.param(edit_game(mp_file, set_in("edges", 0, "i", value=[1])),
                 "edges[0] field 'i' must be an integer or a string, got [1]", id="edge-i-a-list"),
    pytest.param(edit_game(mp_file, set_in("edges", 1, "j", value=[1])),
                 "edges[1] field 'j' must be an integer or a string, got [1]", id="edge-j-a-list"),
    pytest.param(edit_game(mp_file, set_in("agents", 1, "strategies", value=True)),
                 "agents[1] field 'strategies' must be an integer, got True", id="strategies-true"),
    pytest.param(edit_game(mp_file, set_in("agents", 1, "strategies", value=0)),
                 "agents[1] field 'strategies' must be a positive integer, got 0", id="strategies-zero"),
    pytest.param(edit_game(mp_file, set_in("agents", 1, "scale", value=True)),
                 "agents[1] field 'scale' must be a number, got True", id="scale-true"),
    pytest.param(edit_game(mp_file, set_in("agents", 1, "scale", value=0)),
                 "agents[1] field 'scale' must be a positive number, got 0", id="scale-zero"),
    pytest.param(edit_game(mp_file, set_in("agents", 1, "y0", value=[1, 2, 3])),
                 "agents[1]: 'y0' must have shape (2,), got (3,)", id="y0-too-long"),
    pytest.param(edit_game(coordination_triangle_file, set_in("sigma", value=True)),
                 "field 'sigma' must be a number or a string, got True", id="sigma-true"),
    pytest.param(edit_game(mp_file, set_in("sigma", value=0)), "field 'sigma' must be -1, 1 or \"auto\", got 0",
                 id="sigma-zero"),
    pytest.param(lambda tmp_path: write_game(tmp_path / "bad.json", [1]), "a game file must be a JSON object, got list",
                 id="game-a-list"),
    pytest.param(edit_game(mp_file, set_in("agents", 1, "id", value=1)), "agents[1]: duplicate agent id 1",
                 id="duplicate-id"),
    pytest.param(edit_game(mp_file, set_in("agents", 0, "regularizer", value="bogus")),
                 "agents[0]: unknown regularizer 'bogus'", id="unknown-regularizer"),
    pytest.param(edit_game(mp_file, set_in("edges", 0, "i", value=7)), "edges[0]: unknown agent id 7",
                 id="edge-unknown-agent"),
    pytest.param(edit_game(mp_file, set_in("edges", 0, "j", value=1)), "edges[0]: self edge on agent 1",
                 id="self-edge"),
    pytest.param(edit_game(mp_file, set_in("agents", 0, "y0", value=[True, False])),
                 "agents[0]: 'y0' must hold numbers, never true or false", id="y0-booleans"),
    pytest.param(edit_game(mp_file, set_in("edges", 0, "A", value=[[True, -1], [-1, 1]])),
                 "edges[0]: 'A' must hold numbers, never true or false", id="A-holds-true"),
])
def test_malformed_game_file_prints_one_error_line(tmp_path, capsys, game, message):
    # the loader names the file, the place and the field in one line, with no traceback
    path = game(tmp_path)
    assert main(["validate", "--game", path]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}") and message in err
    with pytest.raises(GameFileError):
        load_game_file(path)


class TestValidate:
    def test_matching_pennies(self, tmp_path, capsys):
        assert main(["validate", "--game", mp_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "zero-sum" in out and "bipartite" in out

    def test_constant_sum_reports_normalization(self, tmp_path, capsys):
        assert main(["validate", "--game", constant_sum_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "constant-sum" in out
        assert "normalized to zero-sum (c=2)" in out

    def test_coordination_triangle_reports_degeneracy(self, tmp_path, capsys):
        assert main(["validate", "--game", coordination_triangle_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "coordination" in out
        assert "non-bipartite: network energy identically zero" in out

    def test_bad_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        assert main(["validate", "--game", str(path)]) == 1

    def test_zero_sum_triangle_is_non_bipartite(self, tmp_path, capsys):
        game = triangle_zero_sum()
        doc = {
            "agents": [{"id": i, "strategies": k, "regularizer": "entropy"} for i, k in enumerate(game.strategy_counts)],
            "edges": [{"i": i, "j": j, "A": a.tolist()} for (i, j), a in game.payoffs.items()],
        }
        assert main(["validate", "--game", write_game(tmp_path / "tri.json", doc)]) == 0
        assert capsys.readouterr().out == "zero-sum, non-bipartite\n"

    def test_json_flag(self, tmp_path, capsys):
        assert main(["validate", "--game", mp_file(tmp_path), "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{") :])
        assert doc["classification"] == "zero_sum"
        assert doc["bipartite"] is True


class TestFingerprint:
    def test_network_game_hash_is_unchanged(self):
        game = load_game_file(GAMES / "matching_pennies.json").game
        assert game_fingerprint(game) == "7de27e0fe2f459e833fc5ec7ca77b797d4929ef7bb7f3e9248984a6a0e8693e4"

    @pytest.mark.parametrize("change", [
        {"b": {(0, 1): np.array([0.5, 0.0])}},
        {"d": {(0, 1): np.array([0.0, 0.5])}},
        {"c": {(0, 1): 0.5}},
        {"spaces": ("box", "simplex")},
    ], ids=["b", "d", "c", "spaces"])
    def test_generalized_game_hash_reads_its_affine_terms(self, change):
        payoffs = {(0, 1): MP_MATRIX, (1, 0): -MP_MATRIX.T}
        plain = GeneralizedGame((2, 2), payoffs, sigma=-1)
        assert game_fingerprint(GeneralizedGame((2, 2), payoffs, sigma=-1, **change)) != game_fingerprint(plain)


class TestSimulate:
    def test_writes_csv_and_metadata(self, tmp_path, capsys):
        game_path = mp_file(tmp_path)
        code = main(
            [
                "simulate",
                "--game",
                game_path,
                "--scheme",
                "rk4",
                "--eta",
                "0.01",
                "--horizon",
                "2.0",
                "--stride",
                "10",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        csv_path = tmp_path / "out" / "mp_rk4.csv"
        meta_path = tmp_path / "out" / "mp_rk4.meta.json"
        assert csv_path.exists() and meta_path.exists()
        out = capsys.readouterr().out
        assert "drift" in out
        meta = json.loads(meta_path.read_text())
        assert meta["scheme"] == "rk4"

    def test_euler_summary_reports_monotonicity(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--game",
                mp_file(tmp_path),
                "--scheme",
                "euler",
                "--eta",
                "0.1",
                "--horizon",
                "5",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert "energy non-decreasing: True" in capsys.readouterr().out

    def test_rounded_horizon_noted_and_recorded(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["--eta", "0.3", "--horizon", "1.0", "--stride", "1", "--out", str(out)]
        code = main(["simulate", "--game", mp_file(tmp_path), *args])
        assert code == 0
        err = capsys.readouterr().err
        assert "not a whole number of steps" in err and "t = 0.9 (3 steps)" in err
        meta = json.loads((out / "mp_rk4.meta.json").read_text())
        assert meta["horizon"] == 1.0
        assert meta["effective_horizon"] == 3 * 0.3

    def test_whole_step_horizon_has_no_note(self, tmp_path, capsys):
        args = ["--eta", "0.1", "--horizon", "0.3", "--out", str(tmp_path / "out")]
        assert main(["simulate", "--game", mp_file(tmp_path), *args]) == 0
        assert "note" not in capsys.readouterr().err

    def test_zero_eta_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--game",
                mp_file(tmp_path),
                "--eta",
                "0",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "eta, horizon, message",
        [
            ("1e-3", "inf", "horizon must be nonnegative and finite"),
            ("1e-3", "nan", "horizon must be nonnegative and finite"),
            ("inf", "10", "step size must be positive and finite"),
            ("nan", "10", "step size must be positive and finite"),
            ("1e-300", "1e10", "too many steps"),
        ],
        ids=["horizon-inf", "horizon-nan", "eta-inf", "eta-nan", "step-count-overflow"],
    )
    def test_non_finite_eta_or_horizon_usage_error(self, tmp_path, capsys, eta, horizon, message):
        args = ["--eta", eta, "--horizon", horizon, "--out", str(tmp_path / "out")]
        assert main(["simulate", "--game", mp_file(tmp_path), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_snapshot_rows_past_numpy_name_their_count(self, tmp_path, capsys):
        # 1e290 steps: a finite count, whose rows no array can hold
        game = Path(__file__).resolve().parents[1] / "games" / "matching_pennies.json"
        args = ["--eta", "1e-300", "--horizon", "1e-10", "--out", str(tmp_path / "out")]
        assert main(["simulate", "--game", str(game), *args]) == 1
        err = capsys.readouterr().err
        steps = IntegratorConfig("euler", 1e-300, 1e-10).steps
        rows = steps // 10 + 1 + (steps % 10 != 0)  # the default stride is 10
        assert err.startswith(f"error: cannot allocate {rows} snapshot rows of shape (4,)")
        assert not (tmp_path / "out").exists()

    def test_blow_up_exits_two(self, tmp_path, capsys):
        doc = {
            "agents": [
                {"id": 1, "strategies": 2, "regularizer": "euclidean", "y0": [3, -3]},
                {"id": 2, "strategies": 2, "regularizer": "euclidean", "y0": [2, 1]},
            ],
            "edges": [
                {"i": 1, "j": 2, "A": (1e13 * MP_MATRIX).tolist()},
                {"i": 2, "j": 1, "A": (-1e13 * MP_MATRIX.T).tolist()},
            ],
            "sigma": -1,
        }
        path = write_game(tmp_path / "huge.json", doc)
        code = main(
            [
                "simulate",
                "--game",
                path,
                "--scheme",
                "euler",
                "--eta",
                "1.0",
                "--horizon",
                "5",
                "--stride",
                "1",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "blow-up" in capsys.readouterr().err

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        game_path = mp_file(tmp_path)
        blobs = []
        for sub in ("a", "b"):
            main(
                [
                    "simulate",
                    "--game",
                    game_path,
                    "--eta",
                    "0.01",
                    "--horizon",
                    "1",
                    "--seed",
                    "42",
                    "--radius",
                    "0.2",
                    "--out",
                    str(tmp_path / sub),
                ]
            )
            blobs.append((tmp_path / sub / "mp_rk4.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_zero_radius_starts_at_the_centre(self, tmp_path):
        # one seeded start in a ball of radius 0 is the file's y0 itself
        game_path = mp_file(tmp_path)
        for sub, extra in (("ball", ["--seed", "1", "--radius", "0"]), ("file", [])):
            assert main(["simulate", "--game", game_path, "--eta", "0.1", "--horizon", "0.5",
                         *extra, "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "ball" / "mp_rk4.csv").read_bytes() == (tmp_path / "file" / "mp_rk4.csv").read_bytes()

    def test_explicit_y0_override(self, tmp_path):
        game_path = mp_file(tmp_path)
        code = main(
            [
                "simulate",
                "--game",
                game_path,
                "--eta",
                "0.1",
                "--horizon",
                "0.5",
                "--y0",
                "[[0.1, -0.1], [0.2, 0.0]]",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        from hamgame import read_trajectory_csv

        header, data = read_trajectory_csv(tmp_path / "out" / "mp_rk4.csv")
        # euclidean choice of y = (0.1, -0.1): x = proj(y/2) = (0.55, 0.45)
        assert data[0, 1] == pytest.approx(0.55)

    def test_y0_read_from_a_file(self, tmp_path):
        # inline JSON, @path and a bare path give the same run
        game_path, spec = mp_file(tmp_path), tmp_path / "y0.json"
        spec.write_text("[[0.1, -0.1], [0.2, 0.0]]")
        runs = {"inline": spec.read_text(), "at": f"@{spec}", "path": str(spec)}
        for name, value in runs.items():
            argv = ["--eta", "0.1", "--horizon", "0.5", "--y0", value, "--out", str(tmp_path / name)]
            assert main(["simulate", "--game", game_path, *argv]) == 0
        assert len({(tmp_path / name / "mp_rk4.csv").read_bytes() for name in runs}) == 1


class TestAnalyze:
    def simulate_mp(self, tmp_path, scheme="rk4", eta="0.005", horizon="3"):
        game_path = mp_file(tmp_path)
        main(
            [
                "simulate",
                "--game",
                game_path,
                "--scheme",
                scheme,
                "--eta",
                eta,
                "--horizon",
                horizon,
                "--ref",
                "solve2x2",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        return game_path, tmp_path / "out" / f"mp_{scheme}.csv"

    def test_round_trip_report(self, tmp_path, capsys):
        game_path, csv_path = self.simulate_mp(tmp_path)
        code = main(
            [
                "analyze",
                "--game",
                game_path,
                "--traj",
                str(csv_path),
                "--ref",
                "solve2x2",
            ]
        )
        assert code == 0
        report_path = csv_path.parent / "mp_rk4.report.json"
        report = json.loads(report_path.read_text())
        assert report["checks"]["energy_invariance"]["passed"]
        assert report["checks"]["fenchel_invariance"]["passed"]
        assert report["fenchel"]["max_deviation"] <= 1e-7

    def test_dotted_game_name_finds_its_sidecar(self, tmp_path, capsys):
        # the sidecar is the CSV's stem plus .meta.json, as simulate names it
        game_path = tmp_path / "mp.v2.json"
        Path(mp_file(tmp_path)).rename(game_path)
        out = tmp_path / "out"
        args = ["--eta", "0.05", "--horizon", "1", "--out", str(out)]
        assert main(["simulate", "--game", str(game_path), *args]) == 0
        assert (out / "mp.v2_rk4.meta.json").exists()
        assert main(["analyze", "--game", str(game_path), "--traj", str(out / "mp.v2_rk4.csv")]) == 0
        assert (out / "mp.v2_rk4.report.json").exists()

    def test_euler_report_monotone(self, tmp_path, capsys):
        game_path, csv_path = self.simulate_mp(tmp_path, scheme="euler", eta="0.05", horizon="5")
        code = main(
            ["analyze", "--game", game_path, "--traj", str(csv_path), "--ref", "solve2x2"]
        )
        assert code == 0
        report = json.loads((csv_path.parent / "mp_euler.report.json").read_text())
        assert report["checks"]["energy_nondecreasing"]["passed"]
        assert report["checks"]["fenchel_nondecreasing"]["passed"]

    def test_hash_mismatch_rejected(self, tmp_path, capsys):
        game_path, csv_path = self.simulate_mp(tmp_path)
        other = mp_file(tmp_path, y0=((0.4, -0.4), (0.0, 0.0)))
        # tamper: different matrices under the same agents
        doc = json.loads(Path(other).read_text())
        doc["edges"][0]["A"] = [[2, -2], [-2, 2]]
        doc["edges"][1]["A"] = [[-2, 2], [2, -2]]
        tampered = write_game(tmp_path / "other.json", doc)
        code = main(["analyze", "--game", tampered, "--traj", str(csv_path)])
        assert code == 1
        assert "different game" in capsys.readouterr().err

    def test_failed_tolerance_exits_one(self, tmp_path, capsys):
        # coarse rk4 on the replicator orbit drifts well past the tolerance
        game_path = mp_file(tmp_path, y0=((1.2, -1.2), (0.0, 0.0)), regularizer="entropy")
        main(
            [
                "simulate",
                "--game",
                game_path,
                "--eta",
                "0.45",
                "--horizon",
                "90",
                "--stride",
                "1",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        csv_path = tmp_path / "out" / "mp_rk4.csv"
        code = main(
            [
                "analyze",
                "--game",
                game_path,
                "--traj",
                str(csv_path),
                "--energy-tol",
                "1e-12",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_tampered_csv_rejected(self, tmp_path, capsys):
        game_path, csv_path = self.simulate_mp(tmp_path)
        lines = csv_path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[1] = "0.123456"
        lines[-1] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["analyze", "--game", game_path, "--traj", str(csv_path)])
        assert code == 1
        assert "replay" in capsys.readouterr().err

    def test_older_schema_sidecar_rejected(self, tmp_path, capsys):
        # single runs sum the payoff product in a fixed order from schema 3
        # on, so a schema 2 run cannot be replayed bit for bit
        game_path, csv_path = self.simulate_mp(tmp_path)
        meta_path = csv_path.parent / "mp_rk4.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema_version"] = 2
        meta_path.write_text(json.dumps(meta))
        code = main(["analyze", "--game", game_path, "--traj", str(csv_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "schema 2" in err and "re-run simulate" in err
        assert "corrupted" not in err
        assert not (csv_path.parent / "mp_rk4.report.json").exists()

    def test_edited_middle_row_rejected(self, tmp_path, capsys):
        game_path, csv_path = self.simulate_mp(tmp_path)
        lines = csv_path.read_text().splitlines()
        middle = len(lines) // 2
        cells = lines[middle].split(",")
        cells[1], cells[2] = cells[2], cells[1]
        lines[middle] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["analyze", "--game", game_path, "--traj", str(csv_path)])
        assert code == 1
        assert "replay" in capsys.readouterr().err

    def replicator_euler(self, tmp_path, *flags):
        """CSV path of a recorded Euler run on games/matching_pennies_replicator.json."""
        game = str(GAMES / "matching_pennies_replicator.json")
        out = tmp_path / "out"
        assert main(["simulate", "--game", game, "--scheme", "euler", "--eta", "0.1", "--horizon", "3",
                     "--stride", "1", "--out", str(out), *flags]) == 0
        return game, out / "matching_pennies_replicator_euler.csv"

    @pytest.mark.parametrize("columns", [("H",), ("F",), ("D",), ("H", "F")])
    def test_edited_readings_rejected(self, tmp_path, capsys, columns):
        # t and x match the replay; only the H, F or D cells of row 10 are edited
        game, csv_path = self.replicator_euler(tmp_path, "--ref", "solve2x2")
        lines = csv_path.read_text().splitlines()
        header, cells = lines[0].split(","), lines[10].split(",")
        for name in columns:
            j = header.index(name)
            assert cells[j], "the reading is available in this row"
            cells[j] = repr(float(cells[j]) + 1e-3)
        lines[10] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--game", game, "--traj", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "replay" in err
        assert not list(tmp_path.rglob("*.report.json"))

    def test_coupling_cells_compared_only_against_the_recorded_reference(self, tmp_path):
        # recorded without a reference, F and D are empty cells: a replay
        # against --ref reads them, which the file never held
        game, csv_path = self.replicator_euler(tmp_path)
        assert main(["analyze", "--game", game, "--traj", str(csv_path), "--ref", "solve2x2"]) == 0
        report = json.loads(csv_path.with_name(csv_path.stem + ".report.json").read_text())
        assert report["fenchel"] is not None and report["checks"]["fenchel_nondecreasing"]["passed"]
        # its empty cells match the replay's NaN readings when no --ref is given
        assert main(["analyze", "--game", game, "--traj", str(csv_path)]) == 0

    def test_no_reference_game_still_reports(self, tmp_path, capsys):
        # a game without a fully mixed 2x2 equilibrium: dominant strategies
        doc = {
            "agents": [
                {"id": 1, "strategies": 2, "regularizer": "entropy"},
                {"id": 2, "strategies": 2, "regularizer": "entropy"},
            ],
            "edges": [
                {"i": 1, "j": 2, "A": [[3, 2], [1, 1]]},
                {"i": 2, "j": 1, "A": [[-3, -1], [-2, -1]]},
            ],
            "sigma": "auto",
        }
        game_path = write_game(tmp_path / "dom.json", doc)
        main(
            [
                "simulate",
                "--game",
                game_path,
                "--eta",
                "0.01",
                "--horizon",
                "1",
                "--ref",
                "solve2x2",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        csv_path = tmp_path / "out" / "dom_rk4.csv"
        code = main(
            ["analyze", "--game", game_path, "--traj", str(csv_path), "--ref", "solve2x2"]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "dom_rk4.report.json").read_text())
        assert report["fenchel"] is None and report["bregman"] is None

    def test_report_without_energy_is_strict_json(self, tmp_path, capsys):
        # a general-sum game has no energy: its drift is unavailable, written
        # null, never the NaN token that RFC 8259 parsers reject
        doc = json.loads(Path(mp_file(tmp_path)).read_text())
        for edge in doc["edges"]:
            edge["A"] = [[3, 0], [5, 1]]
        doc["sigma"] = "auto"
        game_path = write_game(tmp_path / "gs.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--game", game_path, "--eta", "0.05", "--horizon", "1", "--out", str(out)]) == 0
        assert main(["analyze", "--game", game_path, "--traj", str(out / "gs_rk4.csv")]) == 0

        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        report = json.loads((out / "gs_rk4.report.json").read_text(), parse_constant=refuse)
        assert report["energy_drift"]["max_abs"] is None and report["energy_drift"]["relative"] is None


class TestCloud:
    def test_small_cloud_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "cloud",
                "--game",
                mp_file(tmp_path),
                "--n",
                "5",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1

    def test_rounded_horizon_noted(self, tmp_path, capsys):
        args = ["--n", "10", "--eta", "0.3", "--horizon", "1.0", "--out", str(tmp_path / "out")]
        assert main(["cloud", "--game", mp_file(tmp_path), *args]) == 0
        assert "the run ends at t = 0.9" in capsys.readouterr().err

    def test_volume_report(self, tmp_path, capsys):
        game_path = mp_file(tmp_path)
        code = main(
            [
                "cloud",
                "--game",
                game_path,
                "--n",
                "200",
                "--radius",
                "0.01",
                "--seed",
                "3",
                "--scheme",
                "rk4,euler",
                "--eta",
                "0.02",
                "--horizon",
                "6.283",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "mp_cloud.json").read_text())
        assert 0.95 <= report["volume"]["rk4"]["ratio"] <= 1.05
        assert report["volume"]["euler"]["ratio"] > 1.1
        assert report["schema_version"] == 1
        assert report["python_version"] == platform.python_version()
        assert report["numpy_version"] == np.__version__
        assert set(report["timing"]) == {"rk4", "euler"}
        for timing in report["timing"].values():
            assert set(timing) == {"step_s", "steps_per_s"}
            assert timing["step_s"] > 0
            # 314 batched steps of all 200 starts
            assert timing["steps_per_s"] == pytest.approx(314 / timing["step_s"])

    def test_former_thread_variable_is_ignored(self, tmp_path, capsys, monkeypatch):
        # the schemes run in turn: no environment variable sizes a thread pool
        args = ["cloud", "--game", mp_file(tmp_path), "--n", "50", "--scheme", "euler,rk4,leapfrog",
                "--eta", "0.05", "--horizon", "1"]
        monkeypatch.delenv("HAMGAME_THREADS", raising=False)
        assert main([*args, "--out", str(tmp_path / "unset")]) == 0
        monkeypatch.setenv("HAMGAME_THREADS", "abc")
        assert main([*args, "--out", str(tmp_path / "abc")]) == 0
        unset, abc = (json.loads((tmp_path / d / "mp_cloud.json").read_text())["volume"]
                      for d in ("unset", "abc"))
        assert abc == unset and set(unset) == {"euler", "rk4", "leapfrog"}


def run_args(command, tmp_path, *flags):
    return [command, "--game", mp_file(tmp_path), "--out", str(tmp_path / "out"), *flags]


def out_is_a_file(tmp_path):
    (tmp_path / "afile").touch()
    return ["simulate", "--game", mp_file(tmp_path), "--out", str(tmp_path / "afile")]


def analyze_after(edit):
    """analyze's argv on a recorded Matching Pennies run, once edit(csv, sidecar) changed its files."""
    def argv(tmp_path):
        game, out = mp_file(tmp_path), tmp_path / "out"
        assert main(["simulate", "--game", game, "--eta", "0.05", "--horizon", "1", "--out", str(out)]) == 0
        edit(out / "mp_rk4.csv", out / "mp_rk4.meta.json")
        return ["analyze", "--game", game, "--traj", str(out / "mp_rk4.csv")]
    return argv


def analyze_with(*flags):
    """analyze's argv on a recorded Matching Pennies run, with flags added."""
    return lambda tmp_path: analyze_after(lambda csv, meta: None)(tmp_path) + list(flags)


def sidecar(change):
    return analyze_after(lambda csv, meta: meta.write_text(json.dumps(change(json.loads(meta.read_text())))))


def bad_json_file(tmp_path, prefix=""):
    """A file whose JSON breaks on its second line, as prefix + its path."""
    path = tmp_path / "bad.json"
    path.write_text("[[0, 0],\n [0 0]]")
    return prefix + str(path)


@pytest.mark.parametrize("argv, message", [
    pytest.param(out_is_a_file, "File exists", id="simulate-out-is-a-file"),
    pytest.param(lambda tmp_path: ["simulate", "--game", str(tmp_path)], "Is a directory", id="game-is-a-directory"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", f"@{tmp_path / 'missing.json'}"),
                 "No such file or directory", id="y0-file-missing"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--eta", "0"),
                 "step size must be positive and finite, got 0.0", id="eta-zero"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--seed", "1", "--radius", "inf"),
                 "radius must be finite, got inf", id="simulate-radius-inf"),
    pytest.param(lambda tmp_path: run_args("cloud", tmp_path, "--n", "20", "--radius", "nan"),
                 "radius must be finite, got nan", id="cloud-radius-nan"),
    pytest.param(lambda tmp_path: run_args("cloud", tmp_path, "--n", "20", "--radius", "0"),
                 "the cloud's 20 starts have no covariance volume (determinant 0)", id="cloud-radius-zero"),
    pytest.param(lambda tmp_path: run_args("cloud", tmp_path, "--n", "20", "--radius", "-0.01"),
                 "radius must be nonnegative, got -0.01", id="cloud-radius-negative"),
    pytest.param(lambda tmp_path: run_args("cloud", tmp_path, "--n", "20", "--scheme", ""),
                 "--scheme names no scheme", id="cloud-no-scheme"),
    pytest.param(lambda tmp_path: run_args("cloud", tmp_path, "--n", "20", "--scheme", ","),
                 "--scheme names no scheme", id="cloud-only-commas"),
    pytest.param(analyze_after(lambda csv, meta: meta.unlink()), "No such file or directory", id="sidecar-missing"),
    pytest.param(sidecar(lambda m: {**m, "game_hash": "0"}), "was produced from a different game (hash 0 != ",
                 id="hash-mismatch"),
    pytest.param(sidecar(lambda m: {**m, "schema_version": 2}), "has sidecar schema 2", id="schema-mismatch"),
    pytest.param(analyze_after(lambda csv, meta: csv.write_text("".join(csv.read_text().splitlines(True)[:-1]))),
                 "does not match a deterministic replay", id="replay-mismatch"),
    pytest.param(sidecar(lambda m: {**m, "eta": "0.1"}),
                 "mp_rk4.meta.json: sidecar field 'eta' must be a number, got '0.1'", id="sidecar-eta-string"),
    pytest.param(sidecar(lambda m: {**m, "stride": 1.5}),
                 "mp_rk4.meta.json: sidecar field 'stride' must be an integer, got 1.5", id="sidecar-stride-float"),
    pytest.param(sidecar(lambda m: {**m, "y0": None}),
                 "mp_rk4.meta.json: sidecar field 'y0' must be a list, got None", id="sidecar-y0-null"),
    pytest.param(sidecar(lambda m: {k: m[k] for k in ("game_hash", "schema_version")}),
                 "mp_rk4.meta.json: sidecar field 'scheme' must be a string, got nothing", id="sidecar-fields-missing"),
    pytest.param(sidecar(lambda m: [m]), "mp_rk4.meta.json: a sidecar must be a JSON object, got list",
                 id="sidecar-is-a-list"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", "5"),
                 "--y0 must be a list of per-agent vectors, got 5", id="y0-a-number"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--ref", "5"),
                 "--ref must be a list of per-agent vectors, got 5", id="ref-a-number"),
    pytest.param(sidecar(lambda m: {**m, "ref": 5}),
                 "mp_rk4.meta.json: sidecar field 'ref' must be a list of per-agent vectors, got 5",
                 id="sidecar-ref-a-number"),
    pytest.param(sidecar(lambda m: {**m, "y0": [[1, "a"], [0, 0]]}),
                 "mp_rk4.meta.json: sidecar field 'y0' must hold numbers, one vector per agent",
                 id="sidecar-y0-not-numbers"),
    pytest.param(sidecar(lambda m: {**m, "eta": True}), "mp_rk4.meta.json: sidecar field 'eta' must be a number, got True",
                 id="sidecar-eta-true"),
    pytest.param(sidecar(lambda m: {**m, "horizon": True}),
                 "mp_rk4.meta.json: sidecar field 'horizon' must be a number, got True", id="sidecar-horizon-true"),
    pytest.param(sidecar(lambda m: {**m, "stride": True}),
                 "mp_rk4.meta.json: sidecar field 'stride' must be an integer, got True", id="sidecar-stride-true"),
    pytest.param(sidecar(lambda m: {**m, "y0": [[v, v] for v in m["y0"]]}),
                 "mp_rk4.meta.json: sidecar field 'y0' must hold finite numbers, one vector per agent",
                 id="sidecar-y0-a-batch"),
    pytest.param(analyze_after(lambda csv, meta: meta.write_text("{")),
                 "mp_rk4.meta.json: invalid JSON at line 1, column 2", id="sidecar-not-json"),
    pytest.param(analyze_after(lambda csv, meta: csv.write_text("t,x_1_1\nabc,1\n")),
                 "does not match a deterministic replay", id="csv-unparsable"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", "[[[0, 0], [1, 1]], [[0, 0], [1, 1]]]"),
                 "--y0 must hold finite numbers, one vector per agent", id="y0-a-batch"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", "[[0, NaN], [0, 0]]"),
                 "--y0 must hold finite numbers, one vector per agent", id="y0-not-finite"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", "[[true, 0], [0, 0]]"),
                 "--y0 must hold numbers, never true or false", id="y0-holds-true"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--ref", "[[true, false], [0.5, 0.5]]"),
                 "--ref must hold numbers, never true or false", id="ref-holds-booleans"),
    pytest.param(sidecar(lambda m: {**m, "y0": [[0.0, 0.0], [False, 0.0]]}),
                 "mp_rk4.meta.json: sidecar field 'y0' must hold numbers, never true or false",
                 id="sidecar-y0-holds-false"),
    pytest.param(sidecar(lambda m: {**m, "ref": [[True, 0.0], [0.5, 0.5]]}),
                 "mp_rk4.meta.json: sidecar field 'ref' must hold numbers, never true or false",
                 id="sidecar-ref-holds-true"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", "[[0, 0]]"),
                 "--y0 must hold one vector per agent, 2 in all, got 1", id="y0-one-agent-short"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", "[[0, 0, 0], [0, 0]]"),
                 "--y0: agent 1's vector must have length 2, got 3", id="y0-too-long"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--ref", "[[0.5, 0.5]]"),
                 "--ref must hold one vector per agent, 2 in all, got 1", id="ref-one-agent-short"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--ref", "[[0.5, 0.5], [0.5, 0.25, 0.25]]"),
                 "--ref: agent 2's vector must have length 2, got 3", id="ref-too-long"),
    pytest.param(sidecar(lambda m: {**m, "y0": [[0.0, 0.0], [0.0]]}),
                 "mp_rk4.meta.json: sidecar field 'y0': agent 2's vector must have length 2, got 1",
                 id="sidecar-y0-too-short"),
    pytest.param(sidecar(lambda m: {**m, "ref": [[0.5, 0.5]] * 3}),
                 "mp_rk4.meta.json: sidecar field 'ref' must hold one vector per agent, 2 in all, got 3",
                 id="sidecar-ref-one-agent-too-many"),
    pytest.param(analyze_with("--energy-tol", "nan"), "--energy-tol must be a finite number >= 0, got nan",
                 id="energy-tol-nan"),
    pytest.param(analyze_with("--energy-tol=-1e-6"), "--energy-tol must be a finite number >= 0, got -1e-06",
                 id="energy-tol-negative"),
    pytest.param(analyze_with("--fenchel-tol", "nan"), "--fenchel-tol must be a finite number >= 0, got nan",
                 id="fenchel-tol-nan"),
    pytest.param(analyze_with("--fenchel-tol=-1"), "--fenchel-tol must be a finite number >= 0, got -1",
                 id="fenchel-tol-negative"),
    pytest.param(analyze_with("--recurrence-eps", "nan"), "--recurrence-eps must be a finite number > 0, got nan",
                 id="recurrence-eps-nan"),
    pytest.param(analyze_with("--recurrence-eps", "inf"), "--recurrence-eps must be a finite number > 0, got inf",
                 id="recurrence-eps-inf"),
    # a negative value in exponent form, or -inf, is a value, not an option
    pytest.param(lambda tmp_path: run_args("cloud", tmp_path, "--n", "20", "--radius", "-1e-3"),
                 "radius must be nonnegative, got -0.001", id="radius-negative-exponent"),
    pytest.param(lambda tmp_path: run_args("cloud", tmp_path, "--n", "20", "--radius", "-1E-3"),
                 "radius must be nonnegative, got -0.001", id="radius-negative-capital-exponent"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--eta", "-1e-3"),
                 "step size must be positive and finite, got -0.001", id="eta-negative-exponent"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--eta", "-inf"),
                 "step size must be positive and finite, got -inf", id="eta-minus-inf"),
    pytest.param(lambda tmp_path: run_args("cloud", tmp_path, "--n", "20", "--horizon", "-2e0"),
                 "horizon must be nonnegative and finite, got -2.0", id="horizon-negative-exponent"),
    pytest.param(analyze_with("--energy-tol", "-1e-6"), "--energy-tol must be a finite number >= 0, got -1e-06",
                 id="energy-tol-negative-exponent"),
    pytest.param(analyze_with("--fenchel-tol", "-.5e-7"), "--fenchel-tol must be a finite number >= 0, got -5e-08",
                 id="fenchel-tol-negative-exponent"),
    pytest.param(analyze_with("--recurrence-eps", "-1e-2"), "--recurrence-eps must be a finite number > 0, got -0.01",
                 id="recurrence-eps-negative-exponent"),
    # a start volume that overflows, and a start whose sum overflows: no nan
    # ratio in a report, and no numpy warning ahead of the error line
    pytest.param(lambda tmp_path: run_args("cloud", tmp_path, "--n", "20", "--radius", "1e200", "--scheme", "rk4"),
                 "the cloud's 20 starts have no finite covariance volume (determinant nan)", id="radius-1e200"),
    pytest.param(lambda tmp_path: run_args("cloud", tmp_path, "--n", "20", "--radius", "1e300", "--scheme", "rk4"),
                 "the cloud's 20 starts have no finite covariance volume (determinant nan)", id="radius-1e300"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", "[[1e308, 1e308], [0, 0]]"),
                 "choice map requires finite payoff vector", id="y0-sum-overflows"),
    # JSON that does not parse: the flag, and a file's path, line and column
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", "[[0,0],[0,0]"),
                 "--y0: invalid JSON at line 1, column 13: Expecting ',' delimiter", id="y0-inline-not-json"),
    pytest.param(analyze_with("--ref", "[[0.5,0.5],[0.5,0.5]"),
                 "--ref: invalid JSON at line 1, column 21: Expecting ',' delimiter", id="ref-inline-not-json"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", bad_json_file(tmp_path, "@")),
                 "bad.json: invalid JSON at line 2, column 5: Expecting ',' delimiter", id="y0-file-not-json"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--y0", bad_json_file(tmp_path)),
                 "bad.json: invalid JSON at line 2, column 5: Expecting ',' delimiter", id="y0-bare-path-not-json"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--ref", bad_json_file(tmp_path, "@")),
                 "bad.json: invalid JSON at line 2, column 5: Expecting ',' delimiter", id="ref-file-not-json"),
    pytest.param(lambda tmp_path: run_args("simulate", tmp_path, "--ref", f"@{tmp_path / 'missing.json'}"),
                 "--ref: cannot read ", id="ref-file-missing"),
])
def test_failure_prints_one_error_line(tmp_path, capsys, argv, message):
    # commands raise and main reports: exit 1, one line on stderr, no report
    # written; a warning would print lines of its own outside pytest
    argv = argv(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
    assert [str(w.message) for w in caught] == []
    assert not [*tmp_path.rglob("*.report.json"), *tmp_path.rglob("*_cloud.json")]


def test_usage_error_exits_one(capsys):
    # argparse's own exit code 2 is kept for blow-ups
    with pytest.raises(SystemExit) as stop:
        main(["simulate"])
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: hamgame simulate") and "error: the following arguments are required: --game" in err
