"""Command-line interface: exit codes, JSON reports, file round-trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from greenseq import cli, fixtures
from greenseq.cartan import cartan_data
from greenseq.cli import build_parser, main
from greenseq.decomposition import (
    ValidationFailedError,
    construct_mgs,
    decomposition_from_dict,
    decomposition_to_dict,
    random_decomposition,
    underlying_quiver,
)
from greenseq.families import auto_decompose
from greenseq.fixtures import FIG8_TWELVE_COMPOSITION, fig8_quiver
from greenseq.hl import hl_decompose, hl_quiver
from greenseq.quiver import IceQuiver, MutationSequence, Quiver, make_quiver
from greenseq.serialize import quiver_from_dict, quiver_to_dict, sequence_to_dict


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

    @pytest.mark.parametrize("seed", ["(5,0)", "(0,0)"])
    def test_hl_ball_seed_outside_the_rank(self, capsys, seed):
        # the seed is checked before its Cartan row is read
        code, out, err = run(
            capsys, "generate", "--family", "hl", "--type", "A", "--rank", "2",
            "--seed-vertex", seed,
        )
        assert (code, out) == (2, "")
        assert err == f"node index {seed[1]} outside 1..2\n"

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

    def test_usage_error_writes_no_file(self, capsys, tmp_path):
        # every requested output is checked before any file is written
        code, _, err = run(
            capsys, "generate", "--fixture", "fig8",
            "--quiver-out", str(tmp_path / "q.json"),
            "--decomposition-out", str(tmp_path / "d.json"),
        )
        assert code == 2
        assert "fig8 does not produce a decomposition" in err
        assert list(tmp_path.iterdir()) == []


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

    def test_empty_quiver_no_decomposition(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({"vertices": [], "arrows": []}))
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

    @pytest.mark.parametrize("change", ["none", "extra", "double", "reversed"])
    def test_decomposition_must_present_the_quiver(self, capsys, tmp_path, change):
        dec = random_decomposition(5, 3, 12)
        q = underlying_quiver(dec)
        (u, v, _), *rest = q.arrows()
        gap = next((a, b) for a in q.vertices for b in q.vertices if a != b and not q.b(a, b))
        arrows = {
            "none": [(u, v, 1)],
            "extra": [(u, v, 1), gap],
            "double": [(u, v, 2)],
            "reversed": [(v, u, 1)],
        }[change]
        qfile = write_quiver(tmp_path / "q.json", make_quiver(q.vertices, arrows + rest))
        dfile = tmp_path / "d.json"
        dfile.write_text(json.dumps(decomposition_to_dict(dec)))
        code, out, err = run(capsys, "mgs", qfile, "--decomposition", str(dfile))
        if change == "none":
            assert code == 0 and json.loads(out)["verified"] is True
        else:
            assert code == 2 and out == ""
            assert "decomposition does not present the given quiver" in err


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

    def test_not_green_is_named_ahead_of_the_unsafe_range(self, capsys, tmp_path):
        # the state before step 24 has reached the safe bound, and vertex 3
        # is red there; the verdict names the colour, not the bound
        qfile = write_quiver(
            tmp_path / "q.json", make_quiver(["1", "2", "3"], [("1", "2", 3)])
        )
        sfile = tmp_path / "s.json"
        steps = ["3"] + ["2", "1"] * 11 + ["2", "3"]
        sfile.write_text(json.dumps({"steps": steps, "order": "execution"}))
        code, out, _ = run(capsys, "verify", str(qfile), str(sfile))
        assert code == 1
        report = json.loads(out)
        assert report["green"] is False
        assert report["step_index"] == 24
        assert report["vertex"] == "3"

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

    @pytest.mark.parametrize(
        "arrows",
        [
            [{"from": "a", "to": "b", "mult": 99999999999999999999}],
            [{"from": "a", "to": "b", "mult": 5 * 10**18}] * 2,
        ],
        ids=["mult-beyond-int64", "parallel-sum-beyond-int64"],
    )
    def test_multiplicity_beyond_int64(self, capsys, tmp_path, arrows):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({"vertices": ["a", "b"], "arrows": arrows}))
        code, out, err = run(capsys, "mgs", str(qfile))
        assert code == 2
        assert out == ""
        assert "int64" in err and "Traceback" not in err

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

    def test_node_cap_env(self, capsys, tmp_path):
        # a small --node-cap ends the search on a quiver that has an MGS
        qfile = tmp_path / "q.json"
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(qfile))
        assert run(capsys, "search", str(qfile), "--mode", "min", "--node-cap", "5")[0] == 3

    @pytest.mark.parametrize("mode", ["count", "min", "enumerate"])
    @pytest.mark.parametrize("flag", ["--max-len", "--node-cap", "--mutable-cap"])
    def test_negative_limit_exits_2(self, capsys, tmp_path, flag, mode):
        qfile = write_quiver(tmp_path / "q.json", make_quiver(["1", "2"], [("2", "1")]))
        code, out, err = run(capsys, "search", qfile, "--mode", mode, flag, "-1")
        assert code == 2 and out == ""
        assert "must not be negative" in err

    # full subquivers of Hernandez-Leclerc windows with a column gap, which
    # no chain decomposition covers, and their shortest MGS
    HL_GAPPED = {
        "A3-hexagon": ("A", 3, [(1, 0), (1, 2), (2, -1), (2, 3), (3, 0), (3, 2)], 6),
        "A5-core": (
            "A", 5, [(2, 3), (3, 2), (3, 4), (4, 1), (4, 5), (5, 0), (5, 2), (5, 4), (5, 6)], 12,
        ),
    }

    @pytest.mark.parametrize("name", sorted(HL_GAPPED))
    def test_min_on_gapped_hl_subquivers(self, capsys, tmp_path, name):
        letter, rank, window, least = self.HL_GAPPED[name]
        qfile = write_quiver(tmp_path / "q.json", hl_quiver(cartan_data(letter, rank), window))
        code, out, _ = run(capsys, "search", qfile, "--mode", "min", "--mutable-cap", "9")
        assert code == 0
        assert json.loads(out) == {"min_length": least, "budget_exhausted": False}

    @pytest.mark.parametrize("name", sorted(HL_GAPPED))
    def test_gapped_hl_subquivers_have_no_decomposition(self, capsys, tmp_path, name):
        letter, rank, window, _ = self.HL_GAPPED[name]
        cartan = cartan_data(letter, rank)
        q = hl_quiver(cartan, window)
        code, _, err = run(capsys, "mgs", write_quiver(tmp_path / "q.json", q))
        assert code == 2 and "no chain decomposition found" in err
        with pytest.raises(ValidationFailedError) as rejected:
            hl_decompose(q, cartan)
        assert "chain-graph-cycle" in [v.code for v in rejected.value.violations]

    def test_min_without_mgs_exits_3(self, capsys, tmp_path):
        markov = make_quiver(["1", "2", "3"], [("1", "2", 2), ("2", "3", 2), ("3", "1", 2)])
        qfile = write_quiver(tmp_path / "q.json", markov)
        code, out, _ = run(capsys, "search", qfile, "--mode", "min", "--node-cap", "2000")
        assert code == 3 and json.loads(out)["budget_exhausted"] is True

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

    def a2_with_mgs(self, capsys, tmp_path):
        """Files of linear A2 and its 2-step maximal green sequence."""
        qfile = tmp_path / "q.json"
        sfile = tmp_path / "s.json"
        run(
            capsys, "generate", "--family", "linear-a", "--n", "2",
            "--quiver-out", str(qfile),
        )
        run(capsys, "mgs", str(qfile), "--sequence-out", str(sfile))
        return str(qfile), str(sfile)

    @pytest.mark.parametrize("prefix, same_as", [("0", None), ("2", "full")])
    def test_prefix_at_either_end(self, capsys, tmp_path, prefix, same_as):
        qfile, sfile = self.a2_with_mgs(capsys, tmp_path)
        dot = ["export", qfile, "--format", "dot"]
        want = run(capsys, *dot, *(["--sequence", sfile] if same_as else []))[1]
        code, out, _ = run(capsys, *dot, "--sequence", sfile, "--prefix", prefix)
        assert code == 0
        assert out == want

    @pytest.mark.parametrize(
        "prefix, message",
        [("-1", "got -1"), ("5", "sequence length 2, got 5")],
        ids=["negative", "beyond-length"],
    )
    def test_prefix_out_of_range_exits_2(self, capsys, tmp_path, prefix, message):
        qfile, sfile = self.a2_with_mgs(capsys, tmp_path)
        code, out, err = run(
            capsys, "export", qfile, "--format", "dot",
            "--sequence", sfile, "--prefix", prefix,
        )
        assert code == 2
        assert out == ""
        assert message in err

    def test_prefix_without_sequence_exits_2(self, capsys, tmp_path):
        qfile, _ = self.a2_with_mgs(capsys, tmp_path)
        code, out, err = run(capsys, "export", qfile, "--format", "dot", "--prefix", "1")
        assert code == 2
        assert out == ""
        assert "--prefix needs --sequence" in err

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--sequence", "SEQ"], "--sequence"),
            (["--sequence", "MISSING"], "--sequence"),
            (["--prefix", "1"], "--prefix"),
            (["--prefix", "-7"], "--prefix"),
            (["--sequence", "MISSING", "--prefix", "-7"], "--sequence"),
        ],
        ids=["sequence", "missing-sequence", "prefix", "negative-prefix", "both"],
    )
    def test_json_refuses_dot_only_flags(self, capsys, tmp_path, extra, flag):
        # --format json prints the quiver alone; a flag that only DOT reads exits 2
        qfile, sfile = self.a2_with_mgs(capsys, tmp_path)
        files = {"SEQ": sfile, "MISSING": str(tmp_path / "missing.json")}
        argv = [files.get(a, a) for a in extra]
        code, out, err = run(capsys, "export", qfile, "--format", "json", *argv)
        assert code == 2
        assert out == ""
        assert f"{flag} applies only to --format dot" in err

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


_NO_NUMPY_COMMANDS = [
    ["generate", "--fixture", "fig8", "--quiver-out", "fig8.json"],
    ["mgs", "fig8.json"],
    [
        "generate", "--family", "random-qn", "--seed", "3", "--chains", "3",
        "--quiver-out", "q.json", "--decomposition-out", "d.json",
    ],
    ["mgs", "q.json", "--decomposition", "d.json", "--sequence-out", "s.json"],
    ["verify", "q.json", "s.json"],
    [
        "generate", "--family", "hl", "--type", "B", "--rank", "3",
        "--seed-vertex", "(3,0)", "--radius", "1", "--quiver-out", "hl.json",
    ],
    ["mgs", "hl.json"],
    ["search", "fig8.json", "--mode", "count"],
    ["search", "hl.json", "--mode", "min"],
    ["export", "q.json", "--format", "dot", "--sequence", "s.json"],
    ["export", "q.json", "--format", "json"],
]


@pytest.mark.parametrize("stub", [False, True], ids=["unimported", "unimportable"])
def test_runs_without_numpy(capsys, tmp_path, monkeypatch, stub):
    """The library and CLI neither import numpy nor need it: every command
    exits and prints as it does in this process, where numpy is loaded."""
    import greenseq

    script = (
        "import json, sys\n"
        + ("sys.modules['numpy'] = None\n" if stub else "")
        + "import greenseq, greenseq.cli\n"
        "codes = [greenseq.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'numpy': repr(sys.modules.get('numpy', '-'))}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(greenseq.__file__).parents[1]))
    (tmp_path / "sub").mkdir()
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(_NO_NUMPY_COMMANDS)],
        env=env, cwd=tmp_path / "sub", capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    *printed, last = done.stdout.splitlines()
    codes = [0] * len(_NO_NUMPY_COMMANDS)
    assert json.loads(last) == {"codes": codes, "numpy": "None" if stub else "'-'"}

    (tmp_path / "here").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    outputs = []
    for argv in _NO_NUMPY_COMMANDS:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        outputs.append(out)
    assert "\n".join(printed) + "\n" == "".join(outputs)
    for name in ("fig8.json", "q.json", "d.json", "s.json", "hl.json"):
        assert (tmp_path / "sub" / name).read_text() == (tmp_path / "here" / name).read_text()


def test_generate_hl_of_rank_100000(capsys):
    """A window of a type of large rank costs O(rank), not O(rank^3).  Two
    steps from node 1 reach node 3 at most, so the window is that of A3."""
    reports = []
    for rank in ("100000", "3"):
        code, out, _ = run(
            capsys, "generate", "--family", "hl", "--type", "A", "--rank", rank,
            "--seed-vertex", "(1,0)", "--radius", "2",
        )
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert len(reports[0]["quiver"]["vertices"]) == 12


def _refuse_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense matrix was built")

    monkeypatch.setattr(Quiver, "matrix", property(refuse))


class TestNoDenseMatrix:
    """No library or CLI path builds the n x n ``Quiver.matrix``."""

    def test_cli_paths(self, capsys, tmp_path, monkeypatch):
        _refuse_matrix(monkeypatch)
        qfile, dfile = tmp_path / "q.json", tmp_path / "d.json"
        sfile, fig8 = tmp_path / "s.json", tmp_path / "fig8.json"
        run(
            capsys, "generate", "--family", "random-qn", "--seed", "3", "--chains", "3",
            "--quiver-out", str(qfile), "--decomposition-out", str(dfile),
        )
        run(capsys, "generate", "--fixture", "fig8", "--quiver-out", str(fig8))
        a3 = write_quiver(tmp_path / "a3.json", make_quiver("abc", [("b", "a"), ("c", "b")]))
        for argv in (
            ["mgs", str(fig8)],
            ["mgs", str(qfile), "--decomposition", str(dfile), "--sequence-out", str(sfile)],
            ["verify", str(qfile), str(sfile)],
            ["search", a3, "--mode", "count"],
            ["search", a3, "--mode", "min"],
            ["export", str(qfile), "--format", "dot", "--sequence", str(sfile)],
            ["export", str(qfile), "--format", "json"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)

    def test_library_paths(self, monkeypatch):
        dec = random_decomposition(11, 8, 80)
        data, want = decomposition_to_dict(dec), construct_mgs(dec)
        quivers = [make() for make in fixtures.FIXTURE_QUIVERS.values()]
        quivers += [fixtures.three_chain_quiver(), fixtures.oriented_cycles_example()]
        quivers += fixtures.type_a_samples()
        answers = [auto_decompose(q) for q in quivers]
        _refuse_matrix(monkeypatch)
        assert construct_mgs(decomposition_from_dict(data)) == want
        for q, answer in zip(quivers, answers):
            again = auto_decompose(q)
            assert (again is None) == (answer is None)
            if answer is not None:
                assert again[0] == answer[0]
                assert again[1].chains == answer[1].chains


def test_verify_memory_is_linear(capsys, tmp_path):
    """``greenseq verify`` on a 5,015-vertex quiver keeps its traced peak far
    below one dense n x n int64 matrix (201 MB): the quiver is its arrows."""
    dec = random_decomposition(6100, 610, 6100)
    q = underlying_quiver(dec)
    assert len(q.vertices) == 5015
    qfile = write_quiver(tmp_path / "q.json", q)
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(sequence_to_dict(construct_mgs(dec))))
    del dec, q
    tracemalloc.start()
    try:
        code = main(["verify", qfile, str(sfile)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["maximal_green"] is True
    assert peak < 32e6, f"traced peak {peak / 1e6:.1f} MB"


_HL = ["generate", "--family", "hl"]


def _path_file(tmp_path) -> str:
    return write_quiver(tmp_path / "q.json", make_quiver(["1", "2"], [("2", "1")]))


def _ice_file(tmp_path) -> str:
    ice = IceQuiver(make_quiver(["1", "2"], [("2", "1")]), {"2"})
    return write_quiver(tmp_path / "ice.json", ice)


def _unknown_step_file(tmp_path) -> str:
    (tmp_path / "s.json").write_text(json.dumps({"steps": ["9"]}))
    return str(tmp_path / "s.json")


def _drop_last_step(monkeypatch) -> None:
    built = cli.construct_mgs
    monkeypatch.setattr(
        cli, "construct_mgs", lambda dec: MutationSequence(built(dec).steps[:-1])
    )


class TestExitContract:
    """Exits that only an unusual input or a broken construction reaches:
    each returns its documented code and prints no traceback."""

    # argv from tmp_path, a setup on monkeypatch or None, the exit code, and
    # a text that the report or the summary holds
    CASES = {
        "unreadable-file": (lambda t: ["mgs", str(t / "missing.json")], None, 2, "cannot read"),
        "frozen-vertices": (lambda t: ["mgs", _ice_file(t)], None, 2, "without frozen vertices"),
        "random-qn-no-chains": (
            lambda t: ["generate", "--family", "random-qn"], None, 2, "random-qn needs --chains",
        ),
        "random-qn-too-few-vertices": (
            lambda t: ["generate", "--family", "random-qn", "--chains", "5", "--max-vertices", "2"],
            None,
            2,
            "need max_vertices >= n_chains >= 1",
        ),
        "fixture-has-no-decomposition": (
            lambda t: ["generate", "--fixture", "fig8", "--decomposition-out", str(t / "d.json")],
            None,
            2,
            "fig8 does not produce a decomposition",
        ),
        "hl-no-rank": (
            lambda t: [*_HL, "--type", "A"], None, 2, "hl needs --type and --rank",
        ),
        "fig4-wrong-type": (
            lambda t: [*_HL, "--window", "fig4", "--type", "A"],
            None,
            2,
            "--window fig4 is the type B rank 2 window",
        ),
        "unsupported-type": (
            lambda t: [*_HL, "--type", "Z", "--rank", "2"],
            None,
            2,
            "unknown type 'Z'",
        ),
        "no-seed-vertex": (
            lambda t: [*_HL, "--type", "A", "--rank", "2"],
            None,
            2,
            "hl needs --seed-vertex",
        ),
        "malformed-seed": (
            lambda t: [*_HL, "--type", "A", "--rank", "2", "--seed-vertex", "(1;0)"],
            None,
            2,
            "not an (i,r) label: '(1;0)'",
        ),
        "export-out": (
            lambda t: ["export", _path_file(t), "--format", "dot", "--out", str(t / "q.dot")],
            None,
            0,
            "wrote",
        ),
        "export-unknown-step": (
            lambda t: ["export", _path_file(t), "--format", "dot", "--sequence", _unknown_step_file(t)],
            None,
            2,
            "cannot apply sequence: unknown vertex '9'",
        ),
        "self-verification-fails": (
            lambda t: ["mgs", _path_file(t)], _drop_last_step, 1, "self-verification FAILED",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit(self, capsys, tmp_path, monkeypatch, case):
        argv, setup, want, text = self.CASES[case]
        if setup is not None:
            setup(monkeypatch)
        code, out, err = run(capsys, *argv(tmp_path))
        assert code == want
        assert text in out + err
        assert "Traceback" not in out + err
        if case == "export-out":
            assert (tmp_path / "q.dot").read_text().startswith("digraph")
        if case == "self-verification-fails":
            report = json.loads(out)
            assert report["verified"] is False and report["reason"]
