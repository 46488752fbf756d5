import json

import pytest

from dicbound.cli import main
from dicbound.extend import builtin_recipe, recipe_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_valid_and_exit_codes(capsys, tmp_path):
    code, out = run_cli(capsys, "validate", "--channel", "xor2")
    assert code == 0 and "valid" in out
    # an invalid channel file exits 1 and names the violated invariant
    doc = {
        "user_count": 2,
        "alphabet_sizes": [2, 2],
        "g": [[0, 1], [0, 1]],
        "f": [[0, 0, 1, 1], [0, 1, 1, 0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "validate", "--channel", str(path))
    assert code == 1 and "recoverability" in out


def test_region_csv(capsys):
    code, out = run_cli(capsys, "region", "--channel", "xor2", "--dist", "uniform", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "template,rhs_bits"
    values = dict(line.split(",") for line in lines[1:])
    assert [values[k] for k in ("4a", "4b", "4c", "4d", "4e", "4f", "4g")] == [
        "1", "1", "1", "1", "2", "2", "2",
    ]


def test_region_svg(capsys):
    code, out = run_cli(capsys, "region", "--channel", "xor2", "--samples", "3", "--out", "svg")
    assert code == 0 and out.startswith("<svg")


def test_gcs_chain_file_and_enumerate(capsys, tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([["S1", "S2", "D1"], ["S1"]]))
    code, out = run_cli(capsys, "gcs", "--channel", "xor2", "--chain", str(chain))
    assert code == 0 and "total: 1" in out
    code, out = run_cli(capsys, "gcs", "--channel", "xor2", "--enumerate", "--max-l", "2")
    assert code == 0 and "valid chains up to length 2: 5" in out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["S1", "D1"], ["S1"]]))
    code, out = run_cli(capsys, "gcs", "--channel", "xor2", "--chain", str(bad))
    assert code == 1 and "invalid chain" in out


def test_gcs_network_file(capsys, tmp_path):
    doc = {"channel": {"family": "xor2"}, "recipe": recipe_to_dict(builtin_recipe("4f").recipe)}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "gcs", "--network", str(path), "--enumerate", "--max-l", "1")
    assert code == 0 and "valid chains" in out


def test_extend_verify(capsys):
    code, out = run_cli(
        capsys,
        "extend", "--bound", "4a", "--k", "1..5", "--channel", "xor2",
        "--dist", "uniform", "--verify",
    )
    assert code == 0
    assert out.count("|diff|") == 5
    assert "limit: 1R1 <= 1" in out


def test_prove_bound_and_usage_error(capsys):
    code, out = run_cli(capsys, "prove", "--bound", "4c")
    assert code == 0 and "Provable" in out
    code, _ = run_cli(capsys, "prove", "--bound", "4q")
    assert code == 2


def test_prove_problem_file(capsys, tmp_path):
    doc = {
        "variables": ["X1", "V1", "Y1", "X2", "V2", "Y2"],
        "constraints": [
            {"name": "V1 from X1", "expr": {"X1 V1": 1, "X1": -1}},
            {"name": "Y1 law", "expr": {"X1 V2 Y1": 1, "X1 V2": -1}},
        ],
        "target": {"X1 Y1": 1, "X1": -1},
        "name": "output entropy after conditioning",
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "prove", "--problem", str(path))
    assert code == 0 and "Provable" in out


def test_missing_file_is_usage_error(capsys):
    code, _ = run_cli(capsys, "region", "--channel", "missing.json")
    assert code == 2
    code, _ = run_cli(capsys, "region", "--channel", "nosuchfamily")
    assert code == 2


def test_compare_deterministic(capsys):
    code, first = run_cli(capsys, "compare", "--channel", "xor2", "--samples", "4", "--seed", "9")
    assert code == 0
    code, second = run_cli(capsys, "compare", "--channel", "xor2", "--samples", "4", "--seed", "9")
    assert first == second
    assert first.splitlines()[0] == "dist,bound,direct_bound_bits,chain_limit_bits,abs_diff"


def run_cli_exit(capsys, *argv):
    """Exit code, stdout and stderr, whether main returns or argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--channel", "shift2:a"),
        ("region", "--channel", "xor2", "--dist", "seed:abc"),
        ("extend", "--bound", "4a", "--k", "1..x", "--channel", "xor2"),
        ("extend", "--bound", "4a", "--k", "0", "--channel", "xor2"),
        ("gcs", "--channel", "xor2", "--enumerate", "--max-l", "0"),
        ("compare", "--channel", "xor2", "--samples", "0"),
        ("extend", "--bound", "nope", "--channel", "xor2"),
        ("extend", "--bound", "4e", "--k", "20", "--channel", "xor2"),
        ("extend", "--bound", "4e", "--k", "7..9", "--channel", "xor2"),
        ("extend", "--bound", "ineq5", "--k", "7", "--channel", "concat3", "--verify"),
        ("prove", "--bound", "nope"),
    ],
)
def test_bad_numeric_arguments_are_usage_errors(capsys, argv):
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "error" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"target": {"A": 1}},  # no variables
        {"variables": ["A"]},  # no target
        {"variables": ["A", "A"], "target": {"A": 1}},  # repeated name
        {"variables": ["A B"], "target": {"A": 1}},  # whitespace in a name
        {"variables": ["A"], "target": {"B": 1}},  # unknown variable
        {"variables": ["A"], "constraints": [{"name": "c", "expr": {"B": 1}}], "target": {"A": 1}},
        {"variables": ["A"], "target": {"A": "x"}},  # coefficient not rational
    ],
)
def test_malformed_problem_file_is_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli_exit(capsys, "prove", "--problem", str(path))
    assert code == 2
    assert err.startswith("usage error:") and err.count("\n") == 1
