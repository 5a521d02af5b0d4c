"""Command-line interface: exit codes, JSON reports, file round-trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from greenseq.cli import build_parser, main
from greenseq.fixtures import FIG8_TWELVE_COMPOSITION, fig8_quiver
from greenseq.quiver import make_quiver
from greenseq.serialize import quiver_from_dict, quiver_to_dict


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_quiver(path, q):
    path.write_text(json.dumps(quiver_to_dict(q)))
    return str(path)


class TestGenerate:
    def test_linear_a(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        dfile = tmp_path / "d.json"
        code, out, _ = run(
            capsys,
            "generate", "--family", "linear-a", "--n", "3",
            "--quiver-out", str(qfile), "--decomposition-out", str(dfile),
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["quiver"]["vertices"]) == 3
        assert report["decomposition"]["chains"] == [["1", "2", "3"]]
        assert json.loads(qfile.read_text()) == report["quiver"]
        assert json.loads(dfile.read_text()) == report["decomposition"]

    def test_hl_named_window(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "hl", "--type", "B", "--rank", "2",
            "--window", "fig4",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["quiver"]["vertices"]) == 12

    def test_hl_ball(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "hl", "--type", "A", "--rank", "2",
            "--seed-vertex", "(1,0)", "--radius", "2",
        )
        assert code == 0
        assert json.loads(out)["quiver"]["vertices"]

    def test_random_qn_deterministic(self, capsys):
        args = ("generate", "--family", "random-qn", "--seed", "7", "--chains", "3")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second
        assert first[0] == 0

    def test_fixture(self, capsys):
        code, out, _ = run(capsys, "generate", "--fixture", "fig8")
        assert code == 0
        assert quiver_from_dict(json.loads(out)["quiver"]) == fig8_quiver()

    def test_bad_params(self, capsys):
        assert run(capsys, "generate", "--family", "linear-a")[0] == 2
        assert run(capsys, "generate", "--fixture", "nope")[0] == 2
        assert run(capsys, "generate")[0] == 2


class TestMgs:
    def test_linear_a2_with_decomposition(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        dfile = tmp_path / "d.json"
        run(
            capsys, "generate", "--family", "linear-a", "--n", "2",
            "--quiver-out", str(qfile), "--decomposition-out", str(dfile),
        )
        code, out, _ = run(
            capsys, "mgs", str(qfile), "--decomposition", str(dfile)
        )
        assert code == 0
        report = json.loads(out)
        assert report["sequence"]["steps"] == ["1", "2", "1"]
        assert report["verified"] is True

    def test_reference_window_length(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        run(
            capsys, "generate", "--family", "hl", "--window", "fig4",
            "--quiver-out", str(qfile),
        )
        code, out, _ = run(capsys, "mgs", str(qfile))
        assert code == 0
        report = json.loads(out)
        assert report["length"] == 33
        assert report["family"] == "hl"

    def test_seven_vertex_fixture_length(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(qfile))
        code, out, _ = run(capsys, "mgs", str(qfile))
        assert code == 0
        assert json.loads(out)["length"] == 10

    def test_no_decomposition_found(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        write_quiver(qfile, _non_oriented_square())
        assert run(capsys, "mgs", str(qfile))[0] == 2

    def test_invalid_decomposition_file_reports_violations(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        dfile = tmp_path / "d.json"
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(qfile))
        dfile.write_text(
            json.dumps(
                {
                    "chains": [["a"], ["b"], ["c"]],
                    "oblique": [
                        {"from": "a", "to": "b"},
                        {"from": "b", "to": "c"},
                        {"from": "c", "to": "a"},
                    ],
                }
            )
        )
        code, out, _ = run(capsys, "mgs", str(qfile), "--decomposition", str(dfile))
        assert code == 2
        report = json.loads(out)
        assert report["violations"][0]["code"] == "chain-graph-cycle"
        assert report["violations"][0]["clause"] == "chain-tree"

    def test_mgs_then_verify_round_trip(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        sfile = tmp_path / "s.json"
        run(capsys, "generate", "--fixture", "fig10d", "--quiver-out", str(qfile))
        code, _, _ = run(capsys, "mgs", str(qfile), "--sequence-out", str(sfile))
        assert code == 0
        assert run(capsys, "verify", str(qfile), str(sfile))[0] == 0

    def test_random_generation_pipeline(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        dfile = tmp_path / "d.json"
        sfile = tmp_path / "s.json"
        for seed in ("3", "4", "5"):
            code, _, _ = run(
                capsys, "generate", "--family", "random-qn", "--seed", seed,
                "--chains", "3", "--quiver-out", str(qfile),
                "--decomposition-out", str(dfile),
            )
            assert code == 0
            code, out, _ = run(
                capsys, "mgs", str(qfile), "--decomposition", str(dfile),
                "--sequence-out", str(sfile),
            )
            assert code == 0 and json.loads(out)["verified"] is True
            assert run(capsys, "verify", str(qfile), str(sfile))[0] == 0


def _non_oriented_square():
    from greenseq.quiver import make_quiver

    return make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (4, 3), (4, 1)])


class TestVerify:
    def test_composition_file(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        sfile = tmp_path / "s.json"
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(qfile))
        sfile.write_text(
            json.dumps(
                {"steps": list(FIG8_TWELVE_COMPOSITION), "order": "composition"}
            )
        )
        code, out, _ = run(capsys, "verify", str(qfile), str(sfile))
        assert code == 0
        assert json.loads(out)["maximal_green"] is True

    def test_thirteen_step_composition_file(self, capsys, tmp_path):
        from greenseq.fixtures import FIG8_THIRTEEN_COMPOSITION

        qfile = tmp_path / "q.json"
        sfile = tmp_path / "s.json"
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(qfile))
        sfile.write_text(
            json.dumps(
                {"steps": list(FIG8_THIRTEEN_COMPOSITION), "order": "composition"}
            )
        )
        assert run(capsys, "verify", str(qfile), str(sfile))[0] == 0

    def test_order_flag_for_plain_steps(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        sfile = tmp_path / "s.json"
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(qfile))
        sfile.write_text(json.dumps({"steps": list(FIG8_TWELVE_COMPOSITION)}))
        assert (
            run(capsys, "verify", str(qfile), str(sfile), "--order", "composition")[0]
            == 0
        )
        # read as execution order the same steps are not even green
        assert run(capsys, "verify", str(qfile), str(sfile))[0] == 1

    def test_truncated_sequence_reports_still_green(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        sfile = tmp_path / "s.json"
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(qfile))
        steps = list(reversed(FIG8_TWELVE_COMPOSITION))[:-1]
        sfile.write_text(json.dumps({"steps": steps, "order": "execution"}))
        code, out, _ = run(capsys, "verify", str(qfile), str(sfile))
        assert code == 1
        report = json.loads(out)
        assert report["green"] is True
        assert report["maximal_green"] is False
        assert report["reason"] == "vertex still green"

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        qfile = tmp_path / "q.json"
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(qfile))
        assert run(capsys, "verify", str(qfile), str(bad))[0] == 2
        assert run(capsys, "verify", str(bad), str(bad))[0] == 2


class TestMalformedInput:
    """Each malformed file is invalid input: exit 2 and no exception."""

    @pytest.mark.parametrize(
        "arrow",
        [
            {"from": "b", "to": "a", "mult": "x"},
            {"from": "b", "to": "a", "mult": 2.7},
            {"from": "b", "to": "a", "mult": True},
            {"from": "b", "to": "a", "mult": 0},
            {"from": "b"},
            {"to": "a"},
        ],
        ids=["mult-string", "mult-float", "mult-bool", "mult-zero", "no-to", "no-from"],
    )
    def test_bad_arrow(self, capsys, tmp_path, arrow):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({"vertices": ["a", "b"], "arrows": [arrow]}))
        code, _, err = run(capsys, "export", str(qfile), "--format", "json")
        assert code == 2
        assert "arrow" in err

    def test_steps_string_is_not_a_list(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        sfile = tmp_path / "s.json"
        qfile.write_text(
            json.dumps({"vertices": ["a", "b"], "arrows": [{"from": "b", "to": "a"}]})
        )
        sfile.write_text(json.dumps({"steps": "ab"}))
        code, _, err = run(capsys, "verify", str(qfile), str(sfile))
        assert code == 2
        assert "steps" in err

    def test_missing_steps_is_invalid(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        sfile = tmp_path / "s.json"
        qfile.write_text(
            json.dumps({"vertices": ["a", "b"], "arrows": [{"from": "b", "to": "a"}]})
        )
        sfile.write_text(json.dumps({"step": ["a", "b", "a"]}))
        code, out, err = run(capsys, "verify", str(qfile), str(sfile))
        assert code == 2
        assert out == ""
        assert "steps" in err

    @pytest.mark.parametrize(
        "decomposition",
        [
            {"chains": "a1", "oblique": [{"from": "a", "to": "1"}]},
            {"chains": [["a"], ["1"]], "oblique": [{"from": "a"}]},
            {"chains": [["a"], ["1"]], "oblique": ["a1"]},
            {"chains": [["a"], [["1"]]], "oblique": []},
        ],
        ids=["chains-string", "oblique-no-to", "oblique-not-object", "nested-label"],
    )
    def test_bad_decomposition(self, capsys, tmp_path, decomposition):
        qfile = tmp_path / "q.json"
        dfile = tmp_path / "d.json"
        qfile.write_text(
            json.dumps({"vertices": ["1", "a"], "arrows": [{"from": "a", "to": "1"}]})
        )
        dfile.write_text(json.dumps(decomposition))
        code, _, err = run(capsys, "mgs", str(qfile), "--decomposition", str(dfile))
        assert code == 2
        assert str(dfile) in err

    @pytest.mark.parametrize(
        "command, data, path",
        [
            ("quiver", {"vertices": ["a", "b"], "extra": []}, "extra"),
            (
                "quiver",
                {"vertices": ["a", "b"], "arrows": [{"from": "b", "to": "a", "mlt": 3}]},
                "arrows[0].mlt",
            ),
            ("sequence", {"steps": ["a"], "steps_count": 1}, "steps_count"),
            ("decomposition", {"chains": [["a"], ["b"]], "extra": 0}, "extra"),
        ],
        ids=["quiver", "arrow", "sequence", "decomposition"],
    )
    def test_unknown_key_is_invalid(self, capsys, tmp_path, command, data, path):
        qfile = tmp_path / "q.json"
        other = tmp_path / "other.json"
        qfile.write_text(
            json.dumps({"vertices": ["a", "b"], "arrows": [{"from": "b", "to": "a"}]})
        )
        other.write_text(json.dumps(data))
        argv = {
            "quiver": ["export", str(other), "--format", "json"],
            "sequence": ["verify", str(qfile), str(other)],
            "decomposition": ["mgs", str(qfile), "--decomposition", str(other)],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"unknown key {path}" in err

    def test_dense_quiver_is_rejected_without_a_cycle_budget(self, capsys, tmp_path):
        # every pair of 10 vertices joined: 45 arrows, millions of simple cycles
        labels = [f"v{i}" for i in range(10)]
        arrows = [
            (labels[i], labels[j]) if (i + j) % 2 else (labels[j], labels[i])
            for i in range(10)
            for j in range(i + 1, 10)
        ]
        qfile = write_quiver(tmp_path / "q.json", make_quiver(labels, arrows))
        code, out, err = run(capsys, "mgs", qfile)
        assert code == 2
        assert out == ""
        assert "no chain decomposition found" in err
        assert "cycle" not in err


class TestSearch:
    def test_count_and_min(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        run(
            capsys, "generate", "--family", "linear-a", "--n", "2",
            "--quiver-out", str(qfile),
        )
        code, out, _ = run(capsys, "search", str(qfile), "--mode", "count")
        assert code == 0 and json.loads(out)["count"] == 2
        code, out, _ = run(capsys, "search", str(qfile), "--mode", "min")
        assert code == 0 and json.loads(out)["min_length"] == 2

    def test_enumerate_includes_sequences(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        run(
            capsys, "generate", "--family", "linear-a", "--n", "2",
            "--quiver-out", str(qfile),
        )
        code, out, _ = run(capsys, "search", str(qfile), "--mode", "enumerate")
        assert code == 0
        assert json.loads(out)["sequences"] == [["1", "2", "1"], ["2", "1"]]

    def test_mutable_cap_policy(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        run(
            capsys, "generate", "--family", "linear-a", "--n", "9",
            "--quiver-out", str(qfile),
        )
        code, out, _ = run(capsys, "search", str(qfile), "--mode", "min")
        assert code == 3
        assert json.loads(out)["budget_exhausted"] is True

    def test_node_cap_env(self, capsys, tmp_path, monkeypatch):
        qfile = tmp_path / "q.json"
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(qfile))
        monkeypatch.setenv("GREENSEQ_NODE_CAP", "5")
        assert run(capsys, "search", str(qfile), "--mode", "min")[0] == 3

    # quivers with an infinite green path: only the node budget ends the search
    INFINITE = {
        "kronecker": make_quiver(["1", "2"], [("1", "2", 2)]),
        "tournament5": make_quiver(
            [str(i) for i in range(5)],
            [(str(j), str(i)) for i in range(5) for j in range(i + 1, 5)],
        ),
    }

    @pytest.mark.parametrize("mode", ["count", "enumerate"])
    @pytest.mark.parametrize("name", sorted(INFINITE))
    def test_infinite_green_path_exits_3(self, capsys, tmp_path, name, mode):
        qfile = write_quiver(tmp_path / "q.json", self.INFINITE[name])
        code, out, _ = run(
            capsys, "search", qfile, "--mode", mode, "--node-cap", "2000"
        )
        assert code == 3
        assert json.loads(out) == {
            "min_length": None,
            "count": None,
            "budget_exhausted": True,
        }


def test_parser_is_built_once():
    assert build_parser() is build_parser()


class TestExport:
    def test_dot_framed(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        run(
            capsys, "generate", "--family", "linear-a", "--n", "2",
            "--quiver-out", str(qfile),
        )
        code, out, _ = run(capsys, "export", str(qfile), "--format", "dot")
        assert code == 0
        assert out.count('fillcolor="green"') == 2
        assert out.count("shape=box") == 2

    def test_dot_after_full_sequence_all_red(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        sfile = tmp_path / "s.json"
        run(
            capsys, "generate", "--family", "linear-a", "--n", "2",
            "--quiver-out", str(qfile),
        )
        run(capsys, "mgs", str(qfile), "--sequence-out", str(sfile))
        code, out, _ = run(
            capsys, "export", str(qfile), "--format", "dot", "--sequence", str(sfile)
        )
        assert code == 0
        assert out.count('fillcolor="red"') == 2
        assert 'fillcolor="green"' not in out

    def test_dot_prefix_keeps_some_green(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        sfile = tmp_path / "s.json"
        run(
            capsys, "generate", "--family", "linear-a", "--n", "2",
            "--quiver-out", str(qfile),
        )
        run(capsys, "mgs", str(qfile), "--sequence-out", str(sfile))
        code, out, _ = run(
            capsys, "export", str(qfile), "--format", "dot",
            "--sequence", str(sfile), "--prefix", "1",
        )
        assert code == 0
        assert out.count('fillcolor="red"') == 1
        assert out.count('fillcolor="green"') == 1

    def test_json_round_trip_identity(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        run(capsys, "generate", "--fixture", "fig7", "--quiver-out", str(qfile))
        code, first, _ = run(capsys, "export", str(qfile), "--format", "json")
        assert code == 0
        back = tmp_path / "back.json"
        back.write_text(first)
        code, second, _ = run(capsys, "export", str(back), "--format", "json")
        assert code == 0
        assert first == second

    def test_unknown_format(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(qfile))
        with pytest.raises(SystemExit):
            run(capsys, "export", str(qfile), "--format", "svg")


def test_runs_without_networkx(tmp_path):
    """The library and CLI import and run with networkx made unimportable."""
    import greenseq
    from greenseq.fixtures import fig7_quiver

    qfile = write_quiver(tmp_path / "fig7.json", fig7_quiver())
    script = (
        "import sys; sys.modules['networkx'] = None\n"
        "import greenseq\n"
        "from greenseq import cli\n"
        f"sys.exit(cli.main(['mgs', {qfile!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(greenseq.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["family"] == "oriented_cycles"
