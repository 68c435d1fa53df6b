import csv
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from dmajor import RVec, build_dmaj_hrep
from dmajor.cli import main
from dmajor.halfspace import mask_of
from dmajor.svgplot import CORNERS, project

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def write_problem(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def weighted_triple_file(tmp_path):
    return write_problem(
        tmp_path,
        "p.json",
        {"n": 3, "y": ["4", "-2", "2"], "d": ["4", "2", "1"], "x": ["0", "2", "2"]},
    )


class TestCheck:
    def test_holds_exit_zero(self, weighted_triple_file, capsys):
        code = main(["check", weighted_triple_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "criterion iv: True" in out
        assert "witness" in out

    def test_single_criterion(self, weighted_triple_file, capsys):
        assert main(["check", weighted_triple_file, "--criterion", "vi"]) == 0
        out = capsys.readouterr().out
        assert "criterion vi" in out and "criterion iv" not in out

    def test_failing_pair_exit_one(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "bad.json",
            {"n": 3, "y": ["1", "1", "1"], "d": ["1", "1", "1"], "x": ["3", "0", "0"]},
        )
        assert main(["check", path]) == 1

    def test_trace_mismatch_reason(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "trace.json",
            {"n": 2, "y": ["1", "0"], "d": ["1", "1"], "x": ["1", "1"]},
        )
        out_json = tmp_path / "out.json"
        assert main(["check", path, "--json", str(out_json)]) == 1
        payload = json.loads(out_json.read_text())
        assert payload["results"]["reason"] == "trace"

    def test_cycle_detection(self, capsys):
        code = main(["check", str(PROBLEMS / "cycle_pair.json"), "--both"])
        out = capsys.readouterr().out
        assert code == 0
        assert "preorder cycle detected" in out

    def test_missing_x_is_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, "nox.json", {"n": 2, "y": ["1", "0"], "d": ["1", "1"]})
        assert main(["check", path]) == 2

    def test_boolean_dimension_is_input_error(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "booln.json", {"n": True, "y": ["1"], "d": ["1"], "x": ["1"]}
        )
        assert main(["check", path]) == 2

    def test_boolean_sweep_steps_is_input_error(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "boolsteps.json",
            {
                "n": 2,
                "y": ["1", "0"],
                "d": ["1", "1"],
                "sweep": {"d_end": ["2", "1"], "steps": True},
            },
        )
        assert main(["polytope", path]) == 2

    def test_boolean_vector_entry_is_input_error(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "boolx.json", {"n": 2, "y": ["1", "0"], "d": ["1", "1"], "x": [True, "1"]}
        )
        assert main(["check", path]) == 2

    @pytest.mark.parametrize("command", ["polytope", "check"])
    def test_zero_denominator_sweep_bound_is_input_error(self, tmp_path, capsys, command):
        path = write_problem(
            tmp_path,
            "zeroden.json",
            {
                "n": 2,
                "y": ["1", "0"],
                "d": ["1", "1"],
                "x": ["1", "0"],
                "sweep": {"d_end": ["2", "1"], "start": "1/0"},
            },
        )
        assert main([command, path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_denominator_sweep_option_is_input_error(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "sweep.json",
            {"n": 2, "y": ["1", "0"], "d": ["1", "1"], "sweep": {"d_end": ["2", "1"]}},
        )
        assert main(["polytope", path, "--sweep", "1/0", "1", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_huge_exponent_is_input_error(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "hugeexp.json", {"n": 2, "y": ["1e1000000", "0"], "d": ["1", "1"]}
        )
        assert main(["polytope", path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "exponent" in err

    def test_oversized_decimal_is_input_error(self, tmp_path, capsys):
        literal = "1" * 4000 + "e1000"
        payload = {"n": 2, "y": [literal, "0"], "d": ["1", "1"]}
        path = write_problem(tmp_path, "bigdec.json", payload)
        assert main(["polytope", path]) == 2
        err = capsys.readouterr().err
        assert "error: field 'y'" in err and "decimal literal" in err

    def test_derived_value_past_digit_limit_is_input_error(self, tmp_path, capsys):
        # The inputs parse, but the h-rep bounds need more than 4,300 digits.
        payload = {"n": 2, "y": ["1" * 2500, "1"], "d": ["3", "7" + "1" * 2400]}
        path = write_problem(tmp_path, "bigbound.json", payload)
        assert main(["polytope", path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "digits to print" in err
        assert "set_int_max_str_digits" not in err

    def test_directory_as_problem_is_input_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_as_json_output_is_input_error(self, tmp_path, capsys):
        problem = str(PROBLEMS / "weighted_triple.json")
        assert main(["check", problem, "--json", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_decider_disagreement_exits_internal(self, monkeypatch, capsys):
        monkeypatch.setattr("dmajor.cli.find_witness", lambda x, y, d: None)
        assert main(["check", str(PROBLEMS / "weighted_triple.json")]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3, "y": [1,', encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_json_witness_roundtrip(self, weighted_triple_file, tmp_path):
        out_json = tmp_path / "out.json"
        assert main(["check", weighted_triple_file, "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        witness = payload["results"]["witness"]
        d = RVec.parse(payload["inputs"]["d"])
        y = RVec.parse(payload["inputs"]["y"])
        x = RVec.parse(payload["inputs"]["x"])
        rows = [[Fraction(v) for v in row] for row in witness]
        for j in range(3):
            assert sum(rows[i][j] for i in range(3)) == 1
        assert all(v >= 0 for row in rows for v in row)
        assert RVec(tuple(sum(rows[i][j] * d[j] for j in range(3)) for i in range(3))) == d
        assert RVec(tuple(sum(rows[i][j] * y[j] for j in range(3)) for i in range(3))) == x
        assert witness == [["1/2", "1", "0"], ["1/2", "0", "0"], ["0", "0", "1"]]


class TestPolytope:
    def test_hrep_and_vertices(self, weighted_triple_file, tmp_path, capsys):
        out_json = tmp_path / "out.json"
        assert main(["polytope", weighted_triple_file, "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["results"]["T"] == "4"
        bounds = {tuple(e["mask"]): e["value"] for e in payload["results"]["b"]}
        assert bounds[(1,)] == "5" and bounds[(2, 3)] == "4"
        verts = {tuple(v) for v in payload["results"]["vertices"]}
        assert ("5", "0", "-1") in verts and len(verts) == 6

    def test_vertices_recheck_membership(self, weighted_triple_file, tmp_path):
        out_json = tmp_path / "out.json"
        main(["polytope", weighted_triple_file, "--json", str(out_json)])
        payload = json.loads(out_json.read_text())
        hsys = build_dmaj_hrep(
            RVec.parse(payload["inputs"]["y"]), RVec.parse(payload["inputs"]["d"])
        )
        for vert in payload["results"]["vertices"]:
            assert hsys.contains(RVec.parse(vert))

    def test_curve_csv(self, weighted_triple_file, tmp_path):
        out_csv = tmp_path / "curve.csv"
        assert main(["polytope", weighted_triple_file, "--curve", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c", "f"]
        assert rows[1:] == [["0", "0"], ["1", "2"], ["5", "6"], ["7", "4"]]

    def test_max_corner_negative_y_exit_one(self, capsys):
        code = main(["polytope", str(PROBLEMS / "signed_start.json"), "--max-corner"])
        err = capsys.readouterr().err
        assert code == 1
        assert "negative entries" in err

    def test_max_corner_success(self, tmp_path, capsys):
        # y/d constant, so the generator itself is the maximal corner
        path = write_problem(
            tmp_path, "pos.json", {"n": 3, "y": ["4", "2", "1"], "d": ["4", "2", "1"]}
        )
        out_json = tmp_path / "out.json"
        assert main(["polytope", path, "--max-corner", "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["results"]["max_corner"] == ["4", "2", "1"]

    def test_sweep_closed_forms(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            [
                "polytope",
                str(PROBLEMS / "shrinking_family.json"),
                "--sweep",
                "3/10",
                "3/10",
                "1",
                "--sweep-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "vertex", "x1", "x2", "x3"]
        at_lam = {tuple(r[2:]) for r in rows[1:] if r[0] == "3/10"}
        lam = Fraction(3, 10)
        s = 2 + lam
        expected = {
            tuple(str(v) for v in vec)
            for vec in [
                (Fraction(3), Fraction(2), Fraction(1)),
                (Fraction(3), 1 + lam, 2 - lam),
                ((4 + 5 * lam) / s, Fraction(6) / s, (2 + lam) / s),
                ((2 * lam**2 + 5 * lam + 2) / s, Fraction(6) / s, (-2 * lam**2 + lam + 4) / s),
                ((-(lam**2) + 6 * lam + 4) / s, (lam**2 + 3 * lam + 2) / s, (6 - 3 * lam) / s),
                ((2 * lam**2 + 5 * lam + 2) / s, (-2 * lam**2 + 4 * lam + 4) / s, (6 - 3 * lam) / s),
            ]
        }
        assert at_lam == expected

    def test_sweep_from_file_defaults(self, tmp_path, capsys):
        out_json = tmp_path / "out.json"
        code = main(
            ["polytope", str(PROBLEMS / "shrinking_family.json"), "--json", str(out_json)]
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        sweep = payload["results"]["sweep"]
        assert len(sweep) == 11
        assert sweep[-1]["vertices"] == [["3", "2", "1"]]

    def test_svg_output(self, weighted_triple_file, tmp_path):
        out_svg = tmp_path / "fig.svg"
        assert main(["polytope", weighted_triple_file, "--svg", str(out_svg)]) == 0
        text = out_svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<polygon") == 2
        assert "σ=" in text

    def test_svg_labels_follow_json_vertex_order(self, tmp_path):
        out_svg, out_json = tmp_path / "fig.svg", tmp_path / "out.json"
        args = ["polytope", str(PROBLEMS / "weighted_triple.json"), "--svg", str(out_svg)]
        assert main(args + ["--json", str(out_json)]) == 0
        svg_labels = [
            [int(k) for k in group.split(", ")]
            for group in re.findall(r"σ=\(([^)]*)\)", out_svg.read_text())
        ]
        assert svg_labels == json.loads(out_json.read_text())["results"]["vertex_labels"]
        assert len(svg_labels) == 6

    def test_svg_rejected_for_other_dimensions(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "n4.json", {"n": 4, "y": ["1", "2", "3", "4"], "d": ["1"] * 4}
        )
        assert main(["polytope", path, "--svg", str(tmp_path / "f.svg")]) == 2


class TestHausdorffCommand:
    def test_same_file_distance_zero(self, weighted_triple_file, capsys):
        code = main(["hausdorff", weighted_triple_file, weighted_triple_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "Hausdorff distance (1-norm): 0" in out
        assert "bound check" in out and "True" in out

    def test_dimension_mismatch(self, weighted_triple_file, tmp_path, capsys):
        other = write_problem(tmp_path, "n2.json", {"n": 2, "y": ["1", "0"], "d": ["1", "1"]})
        assert main(["hausdorff", weighted_triple_file, other]) == 2

    def test_sweep_pair_regression(self, tmp_path):
        a = write_problem(
            tmp_path, "a.json",
            {"n": 3, "y": ["3", "2", "1"], "d": ["23/10", "2", "17/10"]},
        )
        b = write_problem(
            tmp_path, "b.json",
            {"n": 3, "y": ["3", "2", "1"], "d": ["27/10", "2", "13/10"]},
        )
        out_json = tmp_path / "h.json"
        assert main(["hausdorff", a, b, "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["results"]["distance"] == "8/5"
        assert payload["results"]["bound_check"]["bound_holds"] is True

    def test_classical_vs_weighted_positive_distance(self, tmp_path):
        a = write_problem(
            tmp_path, "a.json", {"n": 3, "y": ["4", "-2", "2"], "d": ["1", "1", "1"]}
        )
        b = write_problem(
            tmp_path, "b.json", {"n": 3, "y": ["4", "-2", "2"], "d": ["4", "2", "1"]}
        )
        out_json = tmp_path / "h.json"
        assert main(["hausdorff", a, b, "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert Fraction(payload["results"]["distance"]) > 0


class TestSd3Command:
    def test_wide_regime(self, tmp_path):
        path = write_problem(tmp_path, "d.json", {"n": 3, "y": ["1", "1", "1"], "d": ["4", "2", "1"]})
        out_json = tmp_path / "out.json"
        assert main(["sd3", path, "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["results"]["regime"] == "wide"
        assert payload["results"]["count"] == 10
        assert all(entry["extreme"] for entry in payload["results"]["matrices"])

    def test_narrow_regime(self, tmp_path):
        path = write_problem(tmp_path, "d.json", {"n": 3, "y": ["1", "1", "1"], "d": ["4", "3", "2"]})
        out_json = tmp_path / "out.json"
        assert main(["sd3", path, "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["results"]["count"] == 13

    def test_degenerate_exit_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, "d.json", {"n": 3, "y": ["1", "1", "1"], "d": ["2", "2", "1"]})
        assert main(["sd3", path]) == 2
        assert "strictly ordered" in capsys.readouterr().err


class TestProjection:
    def test_corners_map_to_fixed_canvas_points(self):
        trace = Fraction(4)
        for k in range(3):
            corner_input = RVec.unit(3, k) * trace
            assert project(corner_input, trace) == CORNERS[k]

    def test_affine_interpolation(self):
        trace = Fraction(6)
        a = RVec.of(6, 0, 0)
        b = RVec.of(0, 6, 0)
        midpoint = (a + b) * Fraction(1, 2)
        pa, pb = project(a, trace), project(b, trace)
        assert project(midpoint, trace) == (
            (pa[0] + pb[0]) / 2,
            (pa[1] + pb[1]) / 2,
        )

    def test_mask_helper_consistency(self):
        assert mask_of((0, 2)) == 0b101
