import ast
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyclecones import cli, cones, jsonio, negdef, polytope, projbundle, simplex
from cyclecones.cli import main, run
from cyclecones.vectors import ClassVector

from conftest import chain_gram

ROOT = Path(__file__).resolve().parents[1]


def run_json(argv):
    document, code = run(argv)
    return document, code


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cone_dual_round_trip(tmp_path):
    path = write(
        tmp_path,
        "cone.json",
        {"basis": "cli2", "dim": 2, "generators": [["1", "0"], ["1", "2"]]},
    )
    document, code = run_json(["cone", "dual", "--input", path])
    assert code == 0 and document["status"] == "ok"
    assert document["payload"]["cone"]["basis"] == "cli2*"


def test_cone_contains_reports_certificate(tmp_path):
    path = write(
        tmp_path,
        "cone.json",
        {"basis": "cli2c", "dim": 2, "generators": [["1", "0"], ["0", "1"]]},
    )
    document, code = run_json(
        ["cone", "contains", "--input", path, "--vector", "2,3"]
    )
    assert code == 0
    assert document["payload"]["member"] is True
    assert document["payload"]["verified"] is True
    document, code = run_json(
        ["cone", "contains", "--input", path, "--vector=-1,1"]
    )
    assert code == 0
    assert document["payload"]["member"] is False
    assert document["payload"]["separating_functional"] == ["1", "0"]


def test_dual_of_zero_cone_is_full_space(tmp_path):
    path = write(
        tmp_path, "zero.json", {"basis": "cliz2", "dim": 2, "generators": []}
    )
    document, code = run_json(["cone", "dual", "--input", path])
    assert code == 0
    dual = document["payload"]["cone"]
    assert dual["inequalities"] == []  # no constraints: the full space
    assert sorted(dual["generators"]) == [
        ["-1", "0"],
        ["0", "-1"],
        ["0", "1"],
        ["1", "0"],
    ]


def test_unknown_subcommand_is_input_error():
    document, code = run_json(["frobnicate"])
    assert code == 1 and document["status"] == "input_error"


def test_usage_error_is_an_input_error_with_its_message(capsys):
    # argparse reads a coordinate list that starts with a minus sign as an option
    document, code = run_json(
        ["decompose", "--geometry", "toric-3fold:curves", "--class", "-1,-1,-1,-2,1"]
    )
    message = "argument --class: expected one argument"
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"] == {"error": {"message": message}}
    assert document["diagnostics"] == [message]
    assert capsys.readouterr().err.startswith("usage: cyclecones decompose ")


def test_missing_file_is_input_error():
    document, code = run_json(["cone", "dual", "--input", "/nonexistent.json"])
    assert code == 1 and document["status"] == "input_error"
    assert document["diagnostics"]


# paths that name a directory or lie under a missing one, read and written
UNUSABLE_PATHS = [
    ("cone-input-directory", ["cone", "convert", "--input", "{tmp}/dir"], "{tmp}/dir"),
    ("bck-gram-directory", ["bck", "--gram", "{tmp}/dir", "--class", "1"], "{tmp}/dir"),
    ("fixture-directory", ["fixture", "{tmp}/dir.json"], "{tmp}/dir.json"),
    ("plot-section-missing-directory",
     ["decompose", "--geometry", "p2-hilb2:surfaces", "--class", "1,0,1",
      "--plot-section", "{tmp}/missing/x.svg"], "{tmp}/missing/x.svg"),
    ("plot-section-directory",
     ["decompose", "--geometry", "p2-hilb2:surfaces", "--class", "1,0,1",
      "--plot-section", "{tmp}/dir"], "{tmp}/dir"),
]


@pytest.mark.parametrize(
    "argv, path", [u[1:] for u in UNUSABLE_PATHS], ids=[u[0] for u in UNUSABLE_PATHS]
)
def test_unusable_path_is_input_error_naming_it(argv, path, tmp_path):
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir.json").mkdir()
    argv = [a.format(tmp=tmp_path) for a in argv]
    document, code = run_json(argv)
    assert (code, document["status"]) == (1, "input_error")
    assert path.format(tmp=tmp_path) in document["payload"]["error"]["message"]


def test_float_in_input_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"basis": "cli2f", "dim": 2, "generators": [[0.5, 1]]}')
    document, code = run_json(["cone", "dual", "--input", str(path)])
    assert code == 1 and document["status"] == "input_error"


def test_domain_error_exit_code(tmp_path):
    # non-pseudo-effective class for the toric geometry -> domain error (2)
    document, code = run_json(
        ["decompose", "--geometry", "toric-3fold:curves", "--class", "0,0,0,0,-1"]
    )
    assert code == 2 and document["status"] == "domain_error"
    assert "separating_functional" in document["payload"]["error"]


def test_internal_error_names_type_and_innermost_frame(monkeypatch):
    def broken_handler(args):
        raise KeyError("lost")

    monkeypatch.setitem(cli._HANDLERS, "ring", broken_handler)
    document, code = run_json(["ring", "eval", "--fixture", "p2-hilb2", "--expr", "D2"])
    assert code == 3 and document["status"] == "internal_error"
    line = broken_handler.__code__.co_firstlineno + 1
    assert document["payload"]["error"] == {
        "message": "KeyError: 'lost'",
        "type": "KeyError",
        "frame": f"test_cli.py:{line} in broken_handler",
    }


def test_dd_ray_budget_is_domain_error(tmp_path, monkeypatch):
    path = write(
        tmp_path,
        "cone.json",
        {"basis": "cli4", "dim": 4, "generators": [[1, t, t * t, t ** 3] for t in range(-3, 4)]},
    )
    monkeypatch.setattr(cones, "_MAX_DD_RAYS", 5)
    document, code = run_json(["cone", "convert", "--input", path])
    assert code == 2 and document["status"] == "domain_error"
    assert document["payload"]["error"]["dim"] == 4


def test_dd_pair_budget_is_domain_error(tmp_path, monkeypatch):
    path = write(
        tmp_path,
        "cone.json",
        {"basis": "cli4", "dim": 4, "generators": [[1, t, t * t, t ** 3] for t in range(-3, 4)]},
    )
    monkeypatch.setattr(cones, "_MAX_DD_PAIRS", 5)
    document, code = run_json(["cone", "convert", "--input", path])
    assert code == 2 and document["status"] == "domain_error"
    error = document["payload"]["error"]
    assert error["message"] == "double description exceeds its pair-test budget"
    assert error["dim"] == 4 and error["pairs"] > 5 and "row" in error


def test_simplex_pivot_budget_is_domain_error(tmp_path, monkeypatch):
    path = write(
        tmp_path,
        "cone.json",
        {"basis": "cli2p", "dim": 2, "generators": [["1", "0"], ["0", "1"]]},
    )
    monkeypatch.setattr(simplex, "_MAX_SIMPLEX_PIVOTS", 0)
    document, code = run_json(["cone", "contains", "--input", path, "--vector", "2,3"])
    assert code == 2 and document["status"] == "domain_error"
    assert document["payload"]["error"]["pivots"] == 1


def test_projbundle_decomposition_payload():
    document, code = run_json(
        ["projbundle", "--hn", "2:0,2:2", "--k", "2", "--class", "2,-3"]
    )
    assert code == 0
    decomposition = document["payload"]["decomposition"]
    assert decomposition["positive"] == ["1", "-1"]
    assert decomposition["negative"] == ["1", "-2"]
    constants = document["payload"]["constants"]
    assert constants["epsilon"] == {"0": "-2", "1": "-2", "2": "-2", "3": "-1", "4": "0"}


def test_projbundle_class_requires_k():
    document, code = run_json(["projbundle", "--hn", "2:0,2:2", "--class", "1,0"])
    assert code == 1


def test_bck_command(tmp_path):
    path = write(
        tmp_path, "gram.json", {"labels": ["Z"], "gram": [["-2"]], "source": "t"}
    )
    document, code = run_json(
        ["bck", "--gram", path, "--class", "1", "--brute-force"]
    )
    assert code == 0
    assert document["payload"]["negative"] == ["1"]
    assert document["payload"]["brute_force_agrees"] is True


@pytest.mark.parametrize("klass, expected", [("1", 1), ("", 0)])
def test_bck_on_a_rank_0_pairing_reads_the_class(tmp_path, klass, expected):
    # the class went unread on a rank-0 pairing, so any --class exited 0
    path = write(tmp_path, "gram.json", {"labels": [], "gram": []})
    document, code = run_json(["bck", "--gram", path, "--class", klass])
    assert code == expected
    if expected:
        assert document["payload"]["error"]["message"] == (
            "expected 0 coordinates in basis 'pairing[]', got 1"
        )
    else:
        assert document["payload"]["negative"] == []


@pytest.mark.parametrize(
    "expr, message",
    [
        # the first used to exit 3 with a TypeError
        ("S1 + D1*D2", "cannot add a RingElement to a DualClass"),
        ("D1*D2 - S1", "cannot add a DualClass to a RingElement"),
    ],
)
def test_ring_eval_sum_of_a_dual_class_and_a_ring_element_is_input_error(expr, message):
    document, code = run_json(["ring", "eval", "--fixture", "m07-s7", "--expr", expr])
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"]["error"]["message"] == message


def test_ring_eval_and_pair():
    document, code = run_json(
        ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "D2^3"]
    )
    assert code == 0
    assert document["payload"]["coords"] == ["-6", "3"]
    # a top-degree element carries its value; D1^3 = 0, so D1^4 is zero
    for expr, value in (("D1^4", "0"), ("D1^2*D2^2", "1")):
        document, code = run_json(["ring", "eval", "--fixture", "p2-hilb2", "--expr", expr])
        assert code == 0
        assert (document["payload"]["coords"], document["payload"]["top_value"]) == ([value], value)
    document, code = run_json(
        ["ring", "pair", "--fixture", "p2-hilb2", "--a", "S3", "--b", "S3"]
    )
    assert code == 0 and document["payload"]["value"] == "-2"
    document, code = run_json(
        ["ring", "pair", "--fixture", "m07-s7", "--a", "(D1+3*D2)^2", "--b", "S2"]
    )
    assert code == 0 and document["payload"]["value"] == "0"


@pytest.mark.parametrize(
    "expr, value", [("1/2*2", "1"), ("2/3", "2/3"), ("2*3 - 6", "0"), ("(1/2)^2*4", "1")]
)
def test_ring_eval_scalar_is_a_scalar(expr, value):
    # a scalar is whatever is neither a ring element nor a dual class, an
    # int or a Fraction alike
    document, code = run_json(["ring", "eval", "--fixture", "p2-hilb2", "--expr", expr])
    assert code == 0
    assert document["payload"] == {"expr": expr, "kind": "scalar", "value": value}


def test_cone_given_both_ways_must_agree(tmp_path, capsys):
    # the ray (1, 0) satisfies the quadrant's inequalities, yet is not the quadrant
    two_sided = {"basis": "b", "dim": 2, "generators": [["1", "0"]],
                 "inequalities": [["1", "0"], ["0", "1"]]}
    document, code = run_json(["cone", "convert", "--input", write(tmp_path, "c.json", two_sided)])
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"]["error"]["message"] == (
        "inconsistent cone: the supplied generators and inequalities describe "
        "different cones"
    )
    # a consistent document prints the bytes of each one-sided form
    readme = {"basis": "demo.div", "dim": 2, "generators": [["1", "0"], ["1", "2"]],
              "inequalities": [["0", "1"], ["2", "-1"]]}
    printed = []
    for drop in (None, "inequalities", "generators"):
        doc = {k: v for k, v in readme.items() if k != drop}
        for op in ("convert", "dual", "rays"):
            assert main(["cone", op, "--input", write(tmp_path, "d.json", doc)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] == printed[2]


def test_fixture_verify_payload():
    document, code = run_json(["fixture", "toric-3fold", "--verify"])
    assert code == 0
    assert document["payload"]["verification"]["all_ok"] is True


def test_directed_command_reports_no_maximum():
    document, code = run_json(
        ["directed", "--geometry", "toric-3fold:curves", "--class", "1,1,0,1,2"]
    )
    assert code == 0
    payload = document["payload"]
    assert payload["status"] == "no-maximum"
    assert payload["verified"] is True
    assert payload["pair_dominator_set_empty"] is True


def test_byte_identical_output_across_runs(capsys):
    from cyclecones.cli import main

    argv = ["directed", "--geometry", "toric-3fold:curves", "--class", "1,1,0,1,2"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert "generated_at" not in first


def test_meta_flag_adds_block_outside_payload():
    document, code = run_json(
        ["--meta", "projbundle", "--hn", "3:1"]
    )
    assert code == 0
    assert "generated_at" in document["meta"]
    assert "generated_at" not in json.dumps(document["payload"])


def test_plot_section_writes_svg(tmp_path):
    out = tmp_path / "section.svg"
    document, code = run_json(
        [
            "decompose",
            "--geometry",
            "p2-hilb2:surfaces",
            "--class",
            "1,0,1",
            "--plot-section",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg") and "</svg>" in text
    assert document["payload"]["plot_section"] == str(out)


def test_plot_section_rejected_off_dimension(tmp_path):
    out = tmp_path / "section.svg"
    document, code = run_json(
        [
            "decompose",
            "--geometry",
            "toric-3fold:curves",
            "--class",
            "1,1,0,1,2",
            "--plot-section",
            str(out),
        ]
    )
    assert code == 1 and document["status"] == "input_error"
    assert not out.exists()


def test_geometry_file_input(tmp_path):
    path = write(
        tmp_path,
        "geom.json",
        {
            "name": "demo",
            "basis": "cliq2",
            "dim": 2,
            "mov": {"generators": [["1", "1"], ["0", "1"]]},
            "eff": {"generators": [["1", "0"], ["0", "1"]]},
            "objective": ["1", "1"],
        },
    )
    document, code = run_json(["decompose", "--geometry", path, "--class", "3,1"])
    assert code == 0
    assert document["payload"]["positive"] == ["1", "1"]
    assert document["payload"]["negative"] == ["2", "0"]


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "cone",
            {"basis": "clim", "dim": 1, "generators": [5]},
            '"generators" row 0 must be a list of rationals, got int',
        ),
        (
            "cone",
            {"basis": 3, "dim": 1, "generators": [["1"]]},
            '"basis" must be a string, got int',
        ),
        (
            "cone",
            {"basis": "clim", "dim": -1, "generators": []},
            '"dim" must be a nonnegative integer, got -1',
        ),
        (
            "cone",
            {"basis": "clim", "dim": 2, "generators": "12"},
            '"generators" must be a list of rows, got str',
        ),
        (
            "cone",
            {"basis": "clim", "dim": 2, "inequalities": [["1", "0"], "01"]},
            '"inequalities" row 1 must be a list of rationals, got str',
        ),
        (
            "decompose",
            {
                "basis": "climg",
                "dim": 2,
                "mov": {"generators": [["1", "1"]]},
                "eff": {"generators": [["1", "0"], ["0", "1"]]},
                "objective": "11",
            },
            '"objective" must be a list of rationals, got str',
        ),
        (
            "bck",
            {"labels": ["a"], "gram": [-2]},
            '"gram" row 0 must be a list of rationals, got int',
        ),
        (
            "bck",
            {"labels": "ab", "gram": [["-2", "0"], ["0", "-2"]]},
            '"labels" must be a list of strings',
        ),
        (
            "decompose",
            {
                "name": ["x"],
                "basis": "climn",
                "dim": 2,
                "mov": {"generators": [["1", "1"]]},
                "eff": {"generators": [["1", "0"], ["0", "1"]]},
            },
            '"name" must be a string, got list',
        ),
    ],
)
def test_malformed_documents_are_input_errors(tmp_path, command, doc, message):
    path = write(tmp_path, "bad.json", doc)
    argv = {
        "cone": ["cone", "convert", "--input", path],
        "decompose": ["decompose", "--geometry", path, "--class", "1,1"],
        "bck": ["bck", "--gram", path, "--class", "1,1"],
    }[command]
    document, code = run_json(argv)
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"]["error"]["message"] == message


@pytest.mark.parametrize(
    "argv, expected, got",
    [
        (["projbundle", "--hn", "2:0,2:2", "--k", "2", "--class", "2,-3,1"], 2, 3),
        (["bck", "--gram", "bench/data/gram.json", "--class", "1,2,3"], 6, 3),
        (["decompose", "--geometry", "toric-3fold:curves", "--class", "1,1,0,1"], 5, 4),
        (
            ["decompose", "--geometry", "toric-3fold:curves", "--class", "1,1,0,1,2"]
            + ["--objective", "1,1"],
            5,
            2,
        ),
    ],
    ids=["projbundle", "bck", "decompose-class", "decompose-objective"],
)
def test_wrong_coordinate_count_is_input_error(argv, expected, got, monkeypatch):
    monkeypatch.chdir(ROOT)
    document, code = run_json(argv)
    assert (code, document["status"]) == (1, "input_error")
    message = document["payload"]["error"]["message"]
    assert message.startswith(f"expected {expected} coordinates in basis ")
    assert message.endswith(f", got {got}")


def test_over_long_json_integer_is_input_error(tmp_path):
    path = tmp_path / "long.json"
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    path.write_text('{"basis": "b", "generators": [[' + digits + "]]}")
    document, code = run_json(["cone", "convert", "--input", str(path)])
    assert (code, document["status"]) == (1, "input_error")
    assert str(sys.get_int_max_str_digits()) in document["payload"]["error"]["message"]


@pytest.mark.parametrize("op", ["rays", "convert"])
def test_over_long_integer_in_a_result_or_detail_is_domain_error(tmp_path, op):
    # the line cut out by +-r1 and +-r2 has entries of about 662 digits:
    # past a limit of 640, both the lineality detail of `cone rays` and the
    # payload of `cone convert` print through rat_str.  A fresh interpreter
    # takes the limit at start-up.
    rng = random.Random(331)
    r1, r2 = ([str(rng.randrange(10**330, 10**331)) for _ in range(3)] for _ in range(2))
    rows = [r1, ["-" + x for x in r1], r2, ["-" + x for x in r2]]
    path = write(tmp_path, "long.json", {"basis": "long3", "dim": 3, "inequalities": rows})
    done = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "cyclecones", "cone", op,
         "--input", path],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT,
        timeout=120,
    )
    document = json.loads(done.stdout)
    assert (done.returncode, document["status"]) == (2, "domain_error")
    error = document["payload"]["error"]
    assert error["limit"] == 640 and "640 digits" in error["message"]


GEOMETRY_DOC = {
    "basis": "clibr2",
    "dim": 2,
    "mov": {"generators": [["1", "1"], ["0", "1"]]},
    "eff": {"generators": [["1", "0"], ["0", "1"]]},
    "objective": ["1", "1"],
}

# three-dimensional, so a section can be asked for, but eff has two rays
DEGENERATE_DOC = {
    "basis": "clideg3",
    "dim": 3,
    "mov": {"generators": [["1", "1", "0"]]},
    "eff": {"generators": [["1", "0", "0"], ["0", "1", "0"]]},
    "objective": ["1", "1", "1"],
}

# One run of every handler branch.  Each handler imports what only it needs
# inside its body, so a missing import shows on its own branch alone.  An
# input error's row may end with its message.
HANDLER_BRANCHES = [
    ("cone-convert", ["cone", "convert", "--input", "bench/data/cone-gens.json"], 0),
    ("cone-dual", ["cone", "dual", "--input", "bench/data/cone-ineqs.json"], 0),
    ("cone-rays", ["cone", "rays", "--input", "bench/data/cone-ineqs.json"], 0),
    ("cone-contains-member", ["cone", "contains", "--input", "bench/data/cone-gens.json",
                              "--vector", "1,1,1,1,7"], 0),
    ("cone-contains-separated", ["cone", "contains", "--input", "bench/data/cone-gens.json",
                                 "--vector", "1,1,0,1,2"], 0),
    # an empty field was dropped: these ran as 1,1,1,1,7 and 1,1,0,1,2
    ("cone-contains-empty-coordinate", ["cone", "contains", "--input",
                                        "bench/data/cone-gens.json", "--vector", "1,1,1,1,7,"],
     1, "empty coordinate in '1,1,1,1,7,'"),
    ("decompose-empty-coordinate", ["decompose", "--geometry", "toric-3fold:curves",
                                    "--class", "1,1,,0,1,2"],
     1, "empty coordinate in '1,1,,0,1,2'"),
    ("decompose-fixture", ["decompose", "--geometry", "toric-3fold:curves",
                           "--class", "1,1,0,1,2"], 0),
    ("decompose-objective", ["decompose", "--geometry", "{geometry}", "--class", "3,1",
                             "--objective", "2,1"], 0),
    ("decompose-plot-section", ["decompose", "--geometry", "p2-hilb2:surfaces",
                                "--class", "1,0,1", "--plot-section", "{tmp}/s.svg"], 0),
    ("decompose-plot-section-zero-class", ["decompose", "--geometry", "p2-hilb2:surfaces",
                                           "--class", "0,0,0", "--plot-section",
                                           "{tmp}/s.svg"], 0),
    ("decompose-plot-section-degenerate", ["decompose", "--geometry", "{degenerate}",
                                           "--class", "1,1,0", "--plot-section",
                                           "{tmp}/s.svg"], 1,
     "effective cone section is degenerate"),
    ("decompose-geometry-file", ["decompose", "--geometry", "{geometry}", "--class", "3,1"], 0),
    ("directed-fixture", ["directed", "--geometry", "toric-3fold:curves",
                          "--class", "1,1,0,1,2"], 0),
    ("directed-geometry-file", ["directed", "--geometry", "{geometry}", "--class", "3,1"], 0),
    ("projbundle-constants", ["projbundle", "--hn", "2:0,2:2"], 0),
    ("projbundle-k", ["projbundle", "--hn", "2:0,2:2", "--k", "2"], 0),
    ("projbundle-class", ["projbundle", "--hn", "2:0,2:2", "--k", "2", "--class", "2,-3"], 0),
    ("projbundle-class-without-k", ["projbundle", "--hn", "2:0,2:2", "--class", "2,-3"], 1),
    # an empty option value was dropped: these exited 0 as if it were not given
    ("projbundle-empty-class", ["projbundle", "--hn", "2:0,2:2", "--k", "2", "--class", ""],
     1, "expected 2 coordinates in basis 'pb[2:0,2:2].N2', got 0"),
    ("projbundle-empty-class-without-k", ["projbundle", "--hn", "2:0,2:2", "--class", ""],
     1, "--class requires --k"),
    ("decompose-empty-objective", ["decompose", "--geometry", "toric-3fold:curves",
                                   "--class", "1,1,0,1,2", "--objective", ""],
     1, "expected 5 coordinates in basis 'toric3.divisors', got 0"),
    ("decompose-empty-plot-section", ["decompose", "--geometry", "p2-hilb2:surfaces",
                                      "--class", "1,0,1", "--plot-section", ""],
     1, "cannot write '': No such file or directory"),
    ("cone-convert-empty-input", ["cone", "convert", "--input", ""], 1, "no such file: ''"),
    ("bck-empty-gram", ["bck", "--gram", "", "--class", "1"], 1, "no such file: ''"),
    ("decompose-empty-geometry", ["decompose", "--geometry", "", "--class", "1"],
     1, "no such file: ''"),
    ("bck", ["bck", "--gram", "bench/data/gram.json", "--class", "1,2,0,3,1,2"], 0),
    ("bck-brute-force", ["bck", "--gram", "bench/data/gram.json", "--class", "1,2,0,3,1,2",
                         "--brute-force"], 0),
    ("ring-eval-scalar", ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "2/3+1"], 0),
    ("ring-eval-element", ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "S3*E"], 0),
    ("ring-eval-bad-character", ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "S3 $ E"],
     1, "bad expression near ' $ E'"),
    ("ring-eval-stray-parenthesis", ["ring", "eval", "--fixture", "p2-hilb2",
                                     "--expr", "S3 )"], 1, "unexpected token ')'"),
    # an operator where an operand belongs: these read "unknown name ')'" and similar
    ("ring-eval-empty-parentheses", ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "()"],
     1, "unexpected token ')'"),
    ("ring-eval-operator-after-operator", ["ring", "eval", "--fixture", "p2-hilb2",
                                          "--expr", "2 + * 3"], 1, "unexpected token '*'"),
    ("ring-eval-leading-caret", ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "^2"],
     1, "unexpected token '^'"),
    ("ring-eval-leading-star", ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "*S3"],
     1, "unexpected token '*'"),
    ("ring-eval-trailing-operator", ["ring", "eval", "--fixture", "p2-hilb2",
                                     "--expr", "S3 +"], 1, "unexpected end of expression"),
    ("ring-eval-dual-class", ["ring", "eval", "--fixture", "m07-s7", "--expr", "2*S1"], 0),
    ("ring-eval-no-ring", ["ring", "eval", "--fixture", "toric-3fold", "--expr", "1"], 1),
    ("ring-pair", ["ring", "pair", "--fixture", "m07-s7", "--a", "(D1+3*D2)^2", "--b", "S1"], 0),
    ("ring-pair-first-not-element", ["ring", "pair", "--fixture", "p2-hilb2",
                                     "--a", "2", "--b", "S3"], 1),
    ("ring-pair-second-not-class", ["ring", "pair", "--fixture", "p2-hilb2",
                                    "--a", "S3", "--b", "2"], 1),
    ("fixture", ["fixture", "projbundle-sample"], 0),
    ("fixture-verify", ["fixture", "p2-hilb2", "--verify"], 0),
    ("meta", ["--meta", "projbundle", "--hn", "3:1"], 0),
]


@pytest.mark.parametrize(
    "argv, expected, message",
    [(*b[1:], None)[:3] for b in HANDLER_BRANCHES],
    ids=[b[0] for b in HANDLER_BRANCHES],
)
def test_every_handler_branch_exits_as_expected(argv, expected, message, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    geometry = write(tmp_path, "geometry.json", GEOMETRY_DOC)
    degenerate = write(tmp_path, "degenerate.json", DEGENERATE_DOC)
    argv = [a.format(tmp=tmp_path, geometry=geometry, degenerate=degenerate) for a in argv]
    document, code = run_json(argv)
    assert (code, document["status"]) == (expected, list(cli._EXIT_CODES)[expected])
    if message is not None:
        assert document["payload"]["error"]["message"] == message
    if "--meta" in argv:
        assert "generated_at" in document["meta"]
    if "--plot-section" in argv:
        svg = tmp_path / "s.svg"
        assert svg.read_text().startswith("<svg") if expected == 0 else not svg.exists()


TOO_LONG = "*".join(["(2^4000)"] * 4)  # 2^16000 has 4 817 digits, past the default limit


@pytest.mark.parametrize(
    "expr, expected",
    [("2^20000", 2), ("2^100000", 2), ("1^3000000", 0), ("(S3^0)^3000000", 0), (TOO_LONG, 2)],
    ids=["2^20000", "2^100000", "1^3000000", "unit^3000000", "long-product"],
)
def test_oversized_ring_results_are_domain_errors(expr, expected):
    document, code = run_json(["ring", "eval", "--fixture", "p2-hilb2", "--expr", expr])
    assert code == expected
    if expected:
        limit = sys.get_int_max_str_digits()
        assert f"more than {limit} digits" in document["payload"]["error"]["message"]


def test_cone_dimension_past_the_cap_is_domain_error(tmp_path):
    path = write(tmp_path, "cone.json", {"basis": "b", "dim": 400, "inequalities": []})
    document, code = run_json(["cone", "convert", "--input", path])
    assert (code, document["status"]) == (2, "domain_error")
    assert document["payload"]["error"]["message"] == "cone dimension 400 exceeds the cap of 64"


def test_gram_rank_past_the_cap_is_domain_error_at_once(tmp_path):
    rank = jsonio._MAX_GRAM_RANK + 1
    path = write(tmp_path, "gram.json", chain_gram(rank))
    start = time.monotonic()
    document, code = run_json(["bck", "--gram", path, "--class", ",".join(["1"] * rank)])
    assert time.monotonic() - start < 0.25
    assert (code, document["status"]) == (2, "domain_error")
    error = document["payload"]["error"]
    assert (error["rank"], error["cap"]) == (rank, jsonio._MAX_GRAM_RANK)


def test_profile_rank_past_the_cap_is_domain_error_at_once():
    start = time.monotonic()
    document, code = run_json(["projbundle", "--hn", "99999999:1,99999999:2"])
    assert time.monotonic() - start < 0.25
    assert (code, document["status"]) == (2, "domain_error")
    assert document["payload"]["error"] == {
        "message": f"profile rank 199999998 exceeds the cap of {projbundle._MAX_PROFILE_RANK}",
        "rank": 199999998,
        "cap": projbundle._MAX_PROFILE_RANK,
    }


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["fixture", "m07-s7", "--verify"], 0),
        (["projbundle", "--hn", "2:0,2:2", "--class", "2,-3"], 1),
    ],
    ids=["ok", "input-error"],
)
def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(argv, expected):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the child's first write to stdout fails
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cyclecones", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            cwd=ROOT,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (expected, b"")


def _fixture_commands():
    """The (label, argv) pairs of ``COMMANDS`` in bench/cli_fixtures.py.

    The file is parsed, not imported, so the test only reads it.
    """
    source = (ROOT / "bench" / "cli_fixtures.py").read_text(encoding="utf-8")
    (node,) = [
        n
        for n in ast.parse(source).body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", "") == "COMMANDS"
    ]
    return ast.literal_eval(node.value)


FIXTURE_COMMANDS = _fixture_commands()


@pytest.mark.parametrize(
    "label, argv", FIXTURE_COMMANDS, ids=[label for label, _ in FIXTURE_COMMANDS]
)
def test_fixture_commands_match_reference(label, argv, monkeypatch, capsys):
    # bench/reference/cli.json holds the exit code and stdout SHA-256 that
    # each README and fixture command must keep, byte for byte
    with open(ROOT / "bench" / "reference" / "cli.json", encoding="utf-8") as handle:
        reference = json.load(handle)[label]
    monkeypatch.chdir(ROOT)
    code = main(list(argv))
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == (reference["exit"], reference["stdout_sha256"])


# broken invariants are internal errors (3); a cap on work is a domain error (2).
# An internal error whose raise site passes details prints them beside its
# message, type and frame: the last entry, None where the site passes none.
RECLASSIFIED = {
    "dd-inconsistent-pair": (
        ["cone", "convert", "--input", "{cone}"], (cones, "violated", lambda rows, point: 0),
        3, "double description produced an inconsistent pair", None,
    ),
    "contains-representations-disagree": (
        ["cone", "contains", "--input", "{cone}", "--vector", "1,1"],
        (cones, "nonneg_solve", lambda columns, target: None),
        3, "representations disagree: inequalities accept a vector the generators cannot produce",
        {"vector": ["1", "1"]},
    ),
    "projbundle-member-separated": (
        ["projbundle", "--hn", "2:0,2:2", "--k", "2", "--class", "2,-3"],
        (projbundle, "reproduces", lambda coeffs, rows, target: False),
        3, "movable combination does not reproduce the positive part", None,
    ),
    "projbundle-mov-flags": (
        # sigma := eps past the order check, in every dimension
        ["projbundle", "--hn", "2:0,2:2", "--k", "1"],
        (projbundle, "_constants",
         lambda p, k, c=projbundle._constants: (lambda e, n, s: (e, n, e))(*c(p, k))),
        3, "movable/effective coincidence flags disagree", None,
    ),
    "projbundle-nef-flags": (
        # nu := eps past the order check, only at k = 3, where sigma_3 = eps_3
        ["projbundle", "--hn", "2:0,2:2", "--k", "3"],
        (projbundle, "_constants",
         lambda p, k, c=projbundle._constants: (lambda e, n, s: (e, e if k == 3 else n, s))(*c(p, k))),
        3, "nef/effective coincidence flags disagree", None,
    ),
    "projbundle-constants-out-of-order": (
        # eps_2 raised from -2 to 0: sigma_2 = eps_1 + top slope = -1 falls below it
        ["projbundle", "--hn", "2:0,2:2"],
        (projbundle.HNProfile, "heights", property(
            lambda p, h=projbundle.HNProfile.heights.func: tuple(
                e + 2 if i == 2 else e for i, e in enumerate(h(p))))),
        3, "cone constants out of order", {"epsilon": "0", "sigma": "-1", "nu": "-2"},
    ),
    "projbundle-closed-form-cone": (
        # (0, 1) is no primitive form of (1, eps_2): the facet (1, 0) vanishes
        # on both generators
        ["projbundle", "--hn", "2:0,2:2", "--k", "2"], (projbundle, "int_primitive", lambda row: (0, 1)),
        3, "closed-form cone fails its facet check",
        {"constant": "-2", "generators": [["0", "1"], ["0", "1"]], "facets": [["-1", "0"], ["1", "0"]]},
    ),
    "decomposition-parts-do-not-add-up": (
        ["projbundle", "--hn", "2:0,2:2", "--k", "2", "--class", "2,-3"],
        (ClassVector, "__add__", lambda self, other: self),
        3, "inconsistent decomposition: positive + negative != input",
        {"input": ["2", "-3"], "positive": ["1", "-1"], "negative": ["1", "-2"]},
    ),
    "vertex-scan-maximum-uncertified": (
        ["decompose", "--geometry", "p2-hilb2:surfaces", "--class", "1,0,1"],
        (polytope, "nonneg_solve", lambda columns, target: None),
        3, "no optimality certificate for vertex scan maximum 7/2",
        {"objective": ["1", "3", "5"], "vertex": ["1", "0", "1/2"]},
    ),
    "support-growth-contract": (
        ["bck", "--gram", "{gram6}", "--class", "1,2,0,3,1,2"],
        (negdef, "_postconditions_hold", lambda basis, coeffs, support: False),
        3, "support growth fixed point violates the output contract", {"support": ["E2", "E4"]},
    ),
    "brute-force-contract": (
        # support growth passes its negative part as a list, brute force
        # its candidates as tuples: only the oracle's check fails
        ["bck", "--gram", "{gram6}", "--class", "1,2,0,3,1,2", "--brute-force"],
        (negdef, "_postconditions_hold", lambda basis, coeffs, support: isinstance(support, list)),
        3, "brute force candidate violates the output contract",
        {"negative": ["0", "3/2", "0", "8/3", "0", "0"]},
    ),
    "brute-force-rank-cap": (
        ["bck", "--gram", "{gram}", "--class", ",".join(["1"] * 17), "--brute-force"], None,
        2, "brute force rank 17 exceeds the cap of 16", None,
    ),
}


@pytest.mark.parametrize("case", sorted(RECLASSIFIED))
def test_error_class_follows_the_taxonomy(case, tmp_path, monkeypatch):
    argv, patch, expected, message, details = RECLASSIFIED[case]
    cone = write(tmp_path, "cone.json", {"basis": "b", "dim": 2, "generators": [[1, 0], [0, 1]]})
    gram = write(tmp_path, "gram.json", chain_gram(17))
    gram6 = str(ROOT / "bench" / "data" / "gram.json")
    argv = [a.format(cone=cone, gram=gram, gram6=gram6) for a in argv]
    if patch is not None:
        monkeypatch.setattr(*patch)
    document, code = run_json(argv)
    assert (code, document["status"]) == (expected, list(cli._EXIT_CODES)[expected])
    error = document["payload"]["error"]
    if expected == 3:
        assert (error["type"], error["message"]) == ("CycleConesError", f"CycleConesError: {message}")
        assert error.get("details") == details
    else:
        assert error["message"] == message


def test_fixture_with_uncovered_top_values_reports_a_finding(tmp_path):
    # p2-hilb2 with top values {"D1^4": "0"} leaves D1^2*D2^2 without a
    # value: the fixture loads (exit 0) with the audit finding, and its
    # claims that need the value fail under --verify (exit 2)
    doc = json.loads((Path(cli.__file__).parent / "fixtures" / "data" / "p2-hilb2.json").read_text())
    doc["ring"]["top_values"] = {"D1^4": "0"}
    path = write(tmp_path, "p2-uncovered.json", doc)
    document, code = run_json(["fixture", path])
    assert code == 0 and document["payload"]["audit"] == {
        "clean": False, "findings": [{"kind": "uncovered-top-monomial", "monomial": "D1^2*D2^2"}]
    }
    document, code = run_json(["fixture", path, "--verify"])
    assert code == 2
    results = document["payload"]["error"]["verification"]["results"]
    assert {r["claim"]: r["status"] for r in results}["ring-audit-clean"] == "flagged"
