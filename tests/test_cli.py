import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyclecones import cli, cones, jsonio, simplex
from cyclecones.cli import main, run

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


def test_ring_eval_and_pair():
    document, code = run_json(
        ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "D2^3"]
    )
    assert code == 0
    assert document["payload"]["coords"] == ["-6", "3"]
    document, code = run_json(
        ["ring", "pair", "--fixture", "p2-hilb2", "--a", "S3", "--b", "S3"]
    )
    assert code == 0 and document["payload"]["value"] == "-2"
    document, code = run_json(
        ["ring", "pair", "--fixture", "m07-s7", "--a", "(D1+3*D2)^2", "--b", "S2"]
    )
    assert code == 0 and document["payload"]["value"] == "0"


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


GEOMETRY_DOC = {
    "basis": "clibr2",
    "dim": 2,
    "mov": {"generators": [["1", "1"], ["0", "1"]]},
    "eff": {"generators": [["1", "0"], ["0", "1"]]},
    "objective": ["1", "1"],
}

# One run of every handler branch.  Each handler imports what only it needs
# inside its body, so a missing import shows on its own branch alone.
HANDLER_BRANCHES = [
    ("cone-convert", ["cone", "convert", "--input", "bench/data/cone-gens.json"], 0),
    ("cone-dual", ["cone", "dual", "--input", "bench/data/cone-ineqs.json"], 0),
    ("cone-rays", ["cone", "rays", "--input", "bench/data/cone-ineqs.json"], 0),
    ("cone-contains-member", ["cone", "contains", "--input", "bench/data/cone-gens.json",
                              "--vector", "1,1,1,1,7"], 0),
    ("cone-contains-separated", ["cone", "contains", "--input", "bench/data/cone-gens.json",
                                 "--vector", "1,1,0,1,2"], 0),
    ("decompose-fixture", ["decompose", "--geometry", "toric-3fold:curves",
                           "--class", "1,1,0,1,2"], 0),
    ("decompose-objective", ["decompose", "--geometry", "{geometry}", "--class", "3,1",
                             "--objective", "2,1"], 0),
    ("decompose-plot-section", ["decompose", "--geometry", "p2-hilb2:surfaces",
                                "--class", "1,0,1", "--plot-section", "{tmp}/s.svg"], 0),
    ("decompose-geometry-file", ["decompose", "--geometry", "{geometry}", "--class", "3,1"], 0),
    ("directed-fixture", ["directed", "--geometry", "toric-3fold:curves",
                          "--class", "1,1,0,1,2"], 0),
    ("directed-geometry-file", ["directed", "--geometry", "{geometry}", "--class", "3,1"], 0),
    ("projbundle-constants", ["projbundle", "--hn", "2:0,2:2"], 0),
    ("projbundle-k", ["projbundle", "--hn", "2:0,2:2", "--k", "2"], 0),
    ("projbundle-class", ["projbundle", "--hn", "2:0,2:2", "--k", "2", "--class", "2,-3"], 0),
    ("projbundle-class-without-k", ["projbundle", "--hn", "2:0,2:2", "--class", "2,-3"], 1),
    ("bck", ["bck", "--gram", "bench/data/gram.json", "--class", "1,2,0,3,1,2"], 0),
    ("bck-brute-force", ["bck", "--gram", "bench/data/gram.json", "--class", "1,2,0,3,1,2",
                         "--brute-force"], 0),
    ("ring-eval-scalar", ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "2/3+1"], 0),
    ("ring-eval-element", ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "S3*E"], 0),
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
    "argv, expected", [b[1:] for b in HANDLER_BRANCHES], ids=[b[0] for b in HANDLER_BRANCHES]
)
def test_every_handler_branch_exits_as_expected(argv, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    geometry = write(tmp_path, "geometry.json", GEOMETRY_DOC)
    argv = [a.format(tmp=tmp_path, geometry=geometry) for a in argv]
    document, code = run_json(argv)
    assert (code, document["status"]) == (expected, list(cli._EXIT_CODES)[expected])
    if "--meta" in argv:
        assert "generated_at" in document["meta"]
    if "--plot-section" in argv:
        assert (tmp_path / "s.svg").read_text().startswith("<svg")


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
