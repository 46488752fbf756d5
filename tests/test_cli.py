import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from itertools import product as iproduct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicbound
from dicbound import extend, networks, regions
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


@pytest.mark.parametrize(
    "bound, channel, sizes",
    [("4a", "xor2", [1, 2, 3]), ("ineq8", "concat3", [None])],
    ids=["parametric", "fixed-size"],
)
def test_extend_verify_checks_replica_rates_at_every_size(capsys, monkeypatch, bound, channel, sizes):
    # one rate check per size the identity verified, and the line reports the largest deviation
    calls = []

    def fake(channel, recipe, dist):
        calls.append(recipe)
        return mock.Mock(max_deviation=[1e-3, 5e-3, 2e-3][len(calls) - 1])

    monkeypatch.setattr(dicbound.cli, "verify_replica_rates", fake)
    code, out = run_cli(capsys, "extend", "--bound", bound, "--k", "1..3", "--channel", channel, "--verify")
    assert code == 0
    assert calls == [builtin_recipe(bound, k).recipe for k in sizes]
    assert f"replica rate deviation: {max([1e-3, 5e-3, 2e-3][: len(sizes)]):.2e}\n" in out


def test_prove_bound_and_usage_error(capsys):
    code, out = run_cli(capsys, "prove", "--bound", "4c")
    assert code == 0 and "Provable" in out
    code, _ = run_cli(capsys, "prove", "--bound", "4q")
    assert code == 2


@pytest.mark.parametrize("missing", ["module", "HighsLp"])
def test_prove_without_the_highs_bindings_is_a_one_line_error(capsys, monkeypatch, missing):
    # the float LP's bindings are a private scipy module: without it, or
    # without a name the prover uses, prove ends in one error line
    import scipy.optimize._highspy as highspy

    if missing == "module":
        monkeypatch.delattr(highspy, "_core")
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    else:
        monkeypatch.delattr(highspy._core, missing)
    code, out, err = run_cli_exit(capsys, "prove", "--bound", "4c")
    assert code == 1 and out == ""
    assert err.startswith("error: scipy's HiGHS bindings cannot run the float LP: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_farkas_vector_that_fails_its_check_is_a_one_line_error(capsys, monkeypatch, tmp_path):
    # the full exact simplex checks its own Farkas vector; should that check
    # fail, prove ends in one error line, not a traceback
    monkeypatch.setattr("dicbound.prover._float_dual", lambda a_t, b: (None, None))
    monkeypatch.setattr("dicbound.exactlp.separates", lambda y, columns, rhs: False)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"variables": ["A", "B"], "target": {"A": 1, "A B": -1}}))
    code, out, err = run_cli_exit(capsys, "prove", "--problem", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: internal error: phase-1 simplex ended with a Farkas vector") and err.count("\n") == 1
    assert "Traceback" not in err


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
    # the output the README shows for this file
    assert code == 0 and out == (
        "output entropy after conditioning: Provable\n"
        "  1 * I(Y1;V2|X1)\n"
        "  1 * H(V1,Y1|X1,V2)\n"
        "  1 * I(V1;Y1,V2|X1)\n"
        "  -1 * [=]V1 from X1\n"
    )
    # a false claim, H(A) >= H(A,B), is a verification failure
    path.write_text(json.dumps({"variables": ["A", "B"], "target": {"A": 1, "A B": -1}}))
    code, out = run_cli(capsys, "prove", "--problem", str(path))
    assert code == 1 and out == (
        f"{path}: NotProvable\n"
        "  not derivable from Shannon-type inequalities plus the given constraints; the inequality may still hold\n"
    )


@pytest.mark.parametrize(
    "doc",
    [
        {"variables": ["A"], "target": {"A": 0}},
        {"variables": ["A", "B"], "target": {"A B": 1, "B A": -1}},
    ],
)
def test_prove_a_target_that_is_identically_zero(capsys, tmp_path, doc):
    # Provable with an empty certificate: a success, not a verification failure
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "prove", "--problem", str(path))
    assert code == 0
    assert out == f"{path}: Provable\n  target 0 is a non-negative combination of elemental inequalities and constraints\n"


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


# (argv, fragment of the one refusal it must print)
BAD_ARGUMENTS = [
    (("validate", "--channel", "shift2:a"), "cannot load channel 'shift2:a': invalid literal for int()"),
    (("region", "--channel", "xor2", "--dist", "seed:abc"), "distribution seed is not an integer: 'seed:abc'"),
    (("extend", "--bound", "4a", "--k", "1..x", "--channel", "xor2"), "argument --k: 'x' is not an integer"),
    (("extend", "--bound", "4a", "--k", "0", "--channel", "xor2"), "argument --k: '0' is below 1"),
    (("gcs", "--channel", "xor2", "--enumerate", "--max-l", "0"), "argument --max-l: '0' is below 1"),
    (("compare", "--channel", "xor2", "--samples", "0"), "argument --samples: '0' is below 1"),
    (("extend", "--bound", "nope", "--channel", "xor2"), "no built-in recipe for bound 'nope'"),
    (("extend", "--bound", "4e", "--k", "20", "--channel", "xor2"), "bound 4e supports k in 1..8, got 20"),
    (("extend", "--bound", "4e", "--k", "7..9", "--channel", "xor2"), "bound 4e supports k in 1..8, got 9"),
    (
        ("extend", "--bound", "ineq5", "--k", "7", "--channel", "concat3", "--verify"),
        "bound ineq5 supports k in 1..6, got 7",
    ),
    (("prove", "--bound", "nope"), "no built-in recipe for bound 'nope'"),
    (  # 3-user bound, 2-user channel
        ("extend", "--bound", "ineq5", "--channel", "xor2"),
        "bound ineq5 is a 3-user bound, channel xor2 has 2 users",
    ),
    (("region", "--channel", "concat3", "--out", "svg"), "SVG output is limited to 2-user regions"),
    (("gcs", "--enumerate"), "either --channel or --network is required"),
    (("gcs", "--channel", "xor2"), "--chain FILE or --enumerate is required"),
    # exclusive options, refused before --dist is read
    (("region", "--channel", "xor2", "--dist", "seed:3", "--samples", "1"), "--dist and --samples exclude each other"),
    (
        ("region", "--channel", "xor2", "--dist", "missing.json", "--samples", "1"),
        "--dist and --samples exclude each other",
    ),
    (
        ("region", "--channel", "xor2", "--dist", "uniform", "--samples", "2", "--out", "svg"),
        "--dist and --samples exclude each other",
    ),
    (("validate", "--channel", "shift2:40,40,1"), "needs a table of 2^41 entries, above the cap of 262144"),
    (("validate", "--channel", "xor2:1"), "xor2 takes no parameters"),
    (("validate", "--channel", "concat3:1"), "concat3 takes no parameters"),
    (("extend", "--bound", "4a", "--channel", "xor2", "--k", "3..1"), "argument --k: empty range '3..1'"),
    # refused before the chain file is read: a missing file gives no "cannot read" error
    (
        ("gcs", "--channel", "xor2", "--enumerate", "--chain", "missing-chain.json"),
        "usage error: --chain and --enumerate exclude each other\n",
    ),
]


@pytest.mark.parametrize(
    "argv,message", BAD_ARGUMENTS, ids=[f"argv{i}" for i in range(len(BAD_ARGUMENTS))]
)
def test_bad_numeric_arguments_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and message in err


@pytest.mark.parametrize(
    "argv,expected_code,message",
    [
        (("gcs", "--channel", "xor2", "--enumerate", "--max-l", "1500"), 1, "error: more than 10000 cut chains"),
        (
            ("extend", "--bound", "4a", "--k", "1..1000000000000", "--channel", "xor2"),
            2,
            "usage error: bound 4a supports k in 1..8, got 9",
        ),
    ],
)
def test_huge_sizes_fail_with_one_line(capsys, argv, expected_code, message):
    code, out, err = run_cli_exit(capsys, *argv)
    assert (code, out) == (expected_code, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_region_samples_past_the_cap_are_refused_before_any_law_is_drawn(capsys, monkeypatch):
    monkeypatch.setattr(regions, "region_distribution_stream", lambda *a: pytest.fail("drew a law"))
    code, out, err = run_cli_exit(capsys, "region", "--channel", "xor2", "--samples", "100000000")
    assert (code, out) == (1, "")
    assert err == "error: 100000000 region samples exceed the cap of 10000\n"


def test_compare_samples_past_the_cap_are_refused_before_the_header(capsys, monkeypatch):
    monkeypatch.setattr("dicbound.cli.bound_vector", lambda *a: pytest.fail("computed a bound vector"))
    code, out, err = run_cli_exit(capsys, "compare", "--channel", "xor2", "--samples", str(regions.MAX_SAMPLES + 1))
    assert (code, out) == (1, "")
    assert err == "error: 10001 compare samples exceed the cap of 10000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("region", "--channel", "xor2", "--samples", "2000"),
        ("gcs", "--channel", "xor2", "--enumerate", "--max-l", "25"),
    ],
)
def test_closed_stdout_ends_quietly(argv):
    # the reader stops after one line, as `| head -1` does; stdout is
    # block-buffered, as by default
    src = os.path.dirname(os.path.dirname(dicbound.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "dicbound", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")  # no traceback, no message


def test_region_samples_are_printed_as_they_are_computed(capsys, monkeypatch):
    # each sample's rows are out before the next sample's bound vector starts
    printed, lines_before = [], []
    real = regions.bound_vector

    def counting(*args, **kwargs):
        printed.append(capsys.readouterr().out)
        lines_before.append("".join(printed).count("\n"))
        return real(*args, **kwargs)

    monkeypatch.setattr(regions, "bound_vector", counting)
    assert main(["region", "--channel", "xor2", "--samples", "3"]) == 0
    templates = len(regions.load_templates(2))
    assert lines_before == [1, 1 + templates, 1 + 2 * templates]


def test_python_m_runs_the_cli(capsys):
    src = os.path.dirname(os.path.dirname(dicbound.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["validate", "--channel", "xor2"]
    proc = subprocess.run(
        [sys.executable, "-m", "dicbound", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    code, out = run_cli(capsys, *argv)
    assert proc.returncode == code == 0 and proc.stdout == out


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden_cases():
    with open(os.path.join(GOLDEN, "cli.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", _golden_cases(), ids=lambda case: case["stdout"])
def test_output_matches_the_golden_files(capsys, case):
    # stdout and exit code pinned byte for byte: a refactor must not move them
    code, out, _ = run_cli_exit(capsys, *case["argv"])
    with open(os.path.join(GOLDEN, case["stdout"]), encoding="utf-8") as fh:
        assert (code, out) == (case["exit"], fh.read())


def correlated_law(sizes, seed):
    """A seeded joint law as a flat row-major list: about a third of the
    source tuples get no mass, and tuples with equal inputs get more."""
    rng = random.Random(seed)
    weights = []
    for xs in iproduct(*map(range, sizes)):
        scale = 4.0 if len(set(xs)) == 1 else 1.0
        weights.append(scale * rng.random() if rng.random() < 0.7 else 0.0)
    total = math.fsum(weights)
    return {"mode": "joint", "probs": [w / total for w in weights]}


@pytest.mark.parametrize(
    "channel, sizes, seed, golden",
    [
        ("concat3", [2, 2, 2], 11, "gcs-concat3-enumerate-l3-joint11.out"),
        ("xor2", [2, 2], 3, "gcs-xor2-enumerate-l3-joint3.out"),
    ],
)
def test_enumerate_under_a_joint_law_matches_the_golden_files(capsys, tmp_path, channel, sizes, seed, golden):
    # a correlated law: every chain term is a network query over dependent sources
    path = tmp_path / "law.json"
    path.write_text(json.dumps(correlated_law(sizes, seed)))
    code, out, _ = run_cli_exit(capsys, "gcs", "--channel", channel, "--enumerate", "--max-l", "3", "--dist", str(path))
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        assert (code, out) == (0, fh.read())


def test_joint_law_is_a_validation_failure_for_the_bound_commands(capsys, tmp_path):
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({"mode": "joint", "probs": [0.5, 0, 0, 0.5]}))
    for argv in (["extend", "--bound", "4e", "--k", "1..2"], ["extend", "--bound", "4f", "--verify"], ["region"]):
        code, out, err = run_cli_exit(capsys, *argv, "--channel", "xor2", "--dist", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "product" in err


# (problem document, fragment of the one refusal it must print)
MALFORMED_PROBLEMS = [
    ({"target": {"A": 1}}, "needs an object with 'variables' and 'target'"),  # no variables
    ({"variables": ["A"]}, "needs an object with 'variables' and 'target'"),  # no target
    ({"variables": ["A", "A"], "target": {"A": 1}}, "variable names repeat in ['A', 'A']"),
    ({"variables": ["A B"], "target": {"A": 1}}, "unknown variable 'A'"),  # whitespace in a name
    ({"variables": ["A"], "target": {"B": 1}}, "unknown variable 'B'"),
    (
        {"variables": ["A"], "constraints": [{"name": "c", "expr": {"B": 1}}], "target": {"A": 1}},
        "unknown variable 'B'",
    ),
    ({"variables": ["A"], "target": {"A": "x"}}, "coefficient 'x' of 'A' is not a rational"),
    (
        {"variables": ["A"], "constraints": [{"name": "c"}], "target": {"A": 1}},  # no expr
        "'constraints' must be a list of {name, expr} objects",
    ),
    ({"variables": ["A"], "target": "x"}, "an expression maps space-separated variable names to coefficients"),
    ({"variables": ["A"], "target": {"": 1}}, "expressions may not reference the empty set"),
    ({"variables": [], "target": {}}, "a problem needs at least one variable"),
]


@pytest.mark.parametrize(
    "doc,message", MALFORMED_PROBLEMS, ids=[f"doc{i}" for i in range(len(MALFORMED_PROBLEMS))]
)
def test_malformed_problem_file_is_usage_error(capsys, tmp_path, doc, message):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli_exit(capsys, "prove", "--problem", str(path))
    assert code == 2
    assert err.startswith("usage error:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "doc",
    [
        {"variables": ["A"], "target": {"A": "1e400"}},  # exact, but past the float range
        {"variables": ["A"], "target": {"A": "1e-400000000"}},  # would build 10**400000000
        {"variables": ["A"], "target": {"A": 1}, "name": ["x"]},  # a name that is not a string
        # JSON true and false are not the coefficients 1 and 0
        {"variables": ["A"], "target": {"A": True}},
        {"variables": ["A", "B"], "constraints": [{"name": "c", "expr": {"A": False, "B": 1}}], "target": {"A": 1}},
        # number literals, as file text because json.dumps turns 1e-400 into
        # 0.0: the false claim -1e-400 H(B|A) >= 0, read exactly, is past
        # the float range
        pytest.param('{"variables": ["A", "B"], "target": {"A": 1e-400, "A B": -1e-400}}', id="number-underflow"),
        pytest.param('{"variables": ["A"], "target": {"A": 1e-400000000}}', id="number-exponent"),
        pytest.param('{"variables": ["A"], "target": {"A": 1}, "name": 0.5}', id="number-name"),
        pytest.param('{"variables": ["A", 1.5], "target": {"A": 1}}', id="number-variable"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested"),
    ],
)
def test_problem_values_the_solver_cannot_take_are_usage_errors(tmp_path, doc):
    # a fresh interpreter, so that a parse that does not end fails on the timeout
    path = tmp_path / "problem.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    script = (
        "import sys, time\n"
        "from dicbound.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dicbound.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "prove", "--problem", str(path)], env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage error:") and proc.stderr.count("\n") == 1
    assert float(proc.stdout) < 1.0


def test_problem_file_numbers_are_exact_decimals(capsys, tmp_path):
    # 0.3 and -0.1 are 3/10 and -1/10, not the nearest floats
    outputs = []
    for coeffs in ('0.3, "A": -0.1', '"3/10", "A": "-1/10"'):
        path = tmp_path / "problem.json"
        path.write_text('{"name": "p", "variables": ["A", "B"], "target": {"A B": %s}}' % coeffs)
        outputs.append(run_cli_exit(capsys, "prove", "--problem", str(path)))
    assert outputs[0] == outputs[1]
    assert outputs[0][:2] == (0, "p: Provable\n  1/5 * H(A|B)\n  1/10 * H(B|A)\n  1/5 * H(B)\n")


NESTED = "[" * 100_000 + "]" * 100_000  # json.load raises RecursionError
XOR2_DOC = {"user_count": 2, "alphabet_sizes": [2, 2], "g": [[0, 1], [0, 1]], "f": [[0, 1, 1, 0]] * 2}
NETWORK_4F = {"channel": {"family": "xor2"}, "recipe": {"counts": [2, 1], "wiring": {
    "1^1": {"2": 1}, "1^2": {"2": 1}, "2^1": {"1": 1}}}}

# id -> (option, file name, file text, fragment of the one refusal it must
# print): each file is malformed for that option
MALFORMED_FILES = {
    "dist-list": ("--dist", "dist.json", "[0.5, 0.5]", "distribution document must be an object with 'probs'"),
    "dist-string-keys": (
        "--dist", "dist.json", json.dumps({"mode": "joint", "probs": {"00": 0.5, "11": 0.5}}),
        "joint atom '00' is not a tuple of integers in the source tuple space",
    ),
    "dist-joint-length": (
        "--dist", "dist.json", json.dumps({"mode": "joint", "probs": [0.5, 0.5]}),
        "joint table length 2 does not match tuple space 4",
    ),
    "dist-sum": (
        "--dist", "dist.json", json.dumps({"probs": [[0.5, 0.4], [0.5, 0.5]]}),
        "probability table does not sum to 1 within 1e-9",
    ),
    "dist-joint-sum": (
        "--dist", "dist.json", json.dumps({"mode": "joint", "probs": [0.3, 0.2, 0.2, 0.2]}),
        "joint table does not sum to 1 within 1e-9",
    ),
    "dist-not-numbers": (
        "--dist", "dist.json", json.dumps({"probs": [["a", "b"], [0.5, 0.5]]}),
        "expected a list of probabilities, got ['a', 'b']",
    ),
    "dist-not-json": ("--dist", "dist.json", "{not json", "Expecting property name enclosed in double quotes"),
    # JSON true and false are not the probabilities 1 and 0
    "dist-bool-product": (
        "--dist", "dist.json", json.dumps({"probs": [[True, False], [0.5, 0.5]]}),
        "expected a list of probabilities, got [True, False]",
    ),
    "dist-bool-joint": (
        "--dist", "dist.json", json.dumps({"mode": "joint", "probs": [True, False, False, False]}),
        "expected a list of probabilities, got [True, False, False, False]",
    ),
    "channel-string-entry": (
        "--channel", "channel.json", json.dumps({**XOR2_DOC, "g": [[0, "a"], [0, 1]]}),
        "g table for user 1 has a symbol that is not an integer",
    ),
    "channel-float-entry": (
        "--channel", "channel.json", json.dumps({**XOR2_DOC, "f": [[0, 1, 1, 0.5], [0, 1, 1, 0]]}),
        "f table for user 1 has a symbol that is not an integer",
    ),
    "channel-float-user-count": (
        "--channel", "channel.json", json.dumps({**XOR2_DOC, "user_count": 2.0}), "user_count must be 2 or 3, got 2.0"
    ),
    "channel-string-size": (
        "--channel", "channel.json", json.dumps({**XOR2_DOC, "alphabet_sizes": ["2", 2]}),
        "alphabet size must be an integer >= 1, got '2'",
    ),
    "channel-params": (
        "--channel", "channel.json", json.dumps({"family": "shift2", "params": "2,2,1"}),
        "channel params must be a list of integers, got '2,2,1'",
    ),
    "channel-list": ("--channel", "channel.json", "[1, 2]", "channel document must be an object"),
    # one alphabet, or one g table, for two users
    "channel-one-alphabet": (
        "--channel", "channel.json", json.dumps({**XOR2_DOC, "alphabet_sizes": [2]}),
        "one input alphabet per user required",
    ),
    "channel-one-table": (
        "--channel", "channel.json", json.dumps({**XOR2_DOC, "g": [[0, 1]]}),
        "one g table and one f table per user required",
    ),
    # JSON true is not the symbol, size or parameter 1
    "channel-bool-entry": (
        "--channel", "channel.json", json.dumps({**XOR2_DOC, "g": [[0, True], [0, 1]]}),
        "g table for user 1 has a symbol that is not an integer",
    ),
    "channel-bool-size": ("--channel", "channel.json", json.dumps(
        {"user_count": 2, "alphabet_sizes": [True, 2], "g": [[0], [0, 1]], "f": [[0, 1], [0, 1]]}
    ), "alphabet size must be an integer >= 1, got True"),
    "channel-bool-params": (
        "--channel", "channel.json", json.dumps({"family": "shift2", "params": [True, True, False]}),
        "channel params must be a list of integers, got [True, True, False]",
    ),
    "network-no-wiring": (
        "--network", "net.json", json.dumps({**NETWORK_4F, "recipe": {"counts": [2, 1]}}),
        "malformed recipe document: KeyError('wiring')",
    ),
    "network-no-channel": (
        "--network", "net.json", json.dumps({"recipe": NETWORK_4F["recipe"]}),
        "needs an object with 'recipe' and, without --channel, 'channel'",
    ),
    "network-wiring-list": (
        "--network", "net.json", json.dumps({**NETWORK_4F, "recipe": {"counts": [2, 1], "wiring": [1]}}),
        "malformed recipe document: AttributeError",
    ),
    # a count or wired copy that is not a JSON integer is not rounded to one
    "network-float-count": (
        "--network", "net.json", json.dumps({**NETWORK_4F, "recipe": {**NETWORK_4F["recipe"], "counts": [2.0, 1]}}),
        "replica counts and wired copies must be integers, got 2.0",
    ),
    "network-bool-count": (
        "--network", "net.json", json.dumps({**NETWORK_4F, "recipe": {**NETWORK_4F["recipe"], "counts": [2, True]}}),
        "replica counts and wired copies must be integers, got True",
    ),
    "network-string-count": (
        "--network", "net.json", json.dumps({**NETWORK_4F, "recipe": {**NETWORK_4F["recipe"], "counts": ["2", 1]}}),
        "replica counts and wired copies must be integers, got '2'",
    ),
    "network-float-copy": ("--network", "net.json", json.dumps({**NETWORK_4F, "recipe": {
        **NETWORK_4F["recipe"], "wiring": {**NETWORK_4F["recipe"]["wiring"], "2^1": {"1": 1.0}}}}),
        "replica counts and wired copies must be integers, got 1.0"),
    "network-bool-copy": ("--network", "net.json", json.dumps({**NETWORK_4F, "recipe": {
        **NETWORK_4F["recipe"], "wiring": {**NETWORK_4F["recipe"]["wiring"], "2^1": {"1": True}}}}),
        "replica counts and wired copies must be integers, got True"),
    "network-rounded": ("--network", "net.json", json.dumps({**NETWORK_4F, "recipe": {
        "counts": [1.9, True], "wiring": {"1^1": {"2": 1.7}, "2^1": {"1": 1}}}}),
        "replica counts and wired copies must be integers, got 1.9"),
    "chain-object": ("--chain", "chain.json", json.dumps({"a": ["S1"]}), "a chain is a list of node-label lists"),
    "chain-flat-list": ("--chain", "chain.json", json.dumps(["S1", "D1"]), "a chain is a list of node-label lists"),
}
# a document nested past the recursion limit fails to parse, for every option
MALFORMED_FILES.update({
    f"nested-{option[2:]}": (option, name, NESTED, "maximum recursion depth exceeded")
    for option, name in (
        ("--dist", "dist.json"),
        ("--channel", "channel.json"),
        ("--network", "net.json"),
        ("--chain", "chain.json"),
        ("--problem", "problem.json"),
    )
})


@pytest.mark.parametrize("option,name,text,message", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_malformed_input_file_is_usage_error(capsys, tmp_path, option, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    argv = {
        "--dist": ("region", "--channel", "xor2", "--dist", str(path)),
        "--channel": ("region", "--channel", str(path)),
        "--network": ("gcs", "--network", str(path), "--enumerate"),
        "--chain": ("gcs", "--channel", "xor2", "--chain", str(path)),
        "--problem": ("prove", "--problem", str(path)),
    }[option]
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1 and message in err


NONRECOVERABLE_DOC = {**XOR2_DOC, "f": [[0, 0, 0, 0]] * 2}

# id -> (network document, message): each is well-formed JSON but fails the network checks
INVALID_NETWORKS = {
    "stray-receiver": (  # receiver 1^5 is not a replica
        {**NETWORK_4F, "recipe": {**NETWORK_4F["recipe"], "wiring": {
            **NETWORK_4F["recipe"]["wiring"], "1^5": {"2": 1}}}},
        "not replicas",
    ),
    "out-of-range-wiring": (
        {**NETWORK_4F, "recipe": {**NETWORK_4F["recipe"], "wiring": {
            **NETWORK_4F["recipe"]["wiring"], "2^1": {"1": 3}}}},
        "unknown replica",
    ),
    "zero-count": (
        {**NETWORK_4F, "recipe": {**NETWORK_4F["recipe"], "counts": [0, 1]}},
        r"replica counts must be positive, got \[0, 1\]",
    ),
    "nonrecoverable-channel": (
        {**NETWORK_4F, "channel": NONRECOVERABLE_DOC},
        "interference recoverability",
    ),
    "wired-twice": (  # "1" and "1^1" name the same receiver
        {**NETWORK_4F, "recipe": {**NETWORK_4F["recipe"], "wiring": {
            "1": {"2": 1}, **NETWORK_4F["recipe"]["wiring"]}}},
        "a receiver is wired twice",
    ),
    "wired-to-own-user": (  # receiver 1^1 hears user 1 instead of user 2
        {**NETWORK_4F, "recipe": {**NETWORK_4F["recipe"], "wiring": {
            **NETWORK_4F["recipe"]["wiring"], "1^1": {"1": 1}}}},
        r"replica \(1, 1\) must be wired to users \(2,\) in order",
    ),
    "oversized-counts": (  # two million copies of user 1, one of them wired
        {**NETWORK_4F, "recipe": {"counts": [2000000, 1], "wiring": {"1^1": {"2": 1}, "2^1": {"1": 1}}}},
        r"no interference wiring for replica \(1, 2\)",
    ),
}


@contextlib.contextmanager
def refusing_huge_counts():
    """Make listing the replicas of a count above 10^6 raise at once, so that
    code that lists every replica before checking the wiring fails fast
    instead of exhausting memory."""
    real = networks.replicas_from_counts

    def guarded(counts):
        if any(n > 10**6 for n in counts):
            raise AssertionError(f"listed every replica of counts {list(counts)}")
        return real(counts)

    with mock.patch.object(extend, "replicas_from_counts", guarded), mock.patch.object(
        networks, "replicas_from_counts", guarded
    ):
        yield


@pytest.mark.parametrize("doc,message", INVALID_NETWORKS.values(), ids=INVALID_NETWORKS)
def test_network_that_fails_the_checks_is_a_validation_failure(capsys, tmp_path, doc, message):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with refusing_huge_counts():
        code, out, err = run_cli_exit(capsys, "gcs", "--network", str(path), "--enumerate")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and re.search(message, err)


def test_nonrecoverable_channel_fails_the_same_way_from_either_option(capsys, tmp_path):
    channel = tmp_path / "channel.json"
    channel.write_text(json.dumps(NONRECOVERABLE_DOC))
    network = tmp_path / "net.json"
    network.write_text(json.dumps({**NETWORK_4F, "channel": NONRECOVERABLE_DOC}))
    results = [
        run_cli_exit(capsys, "gcs", "--channel", str(channel), "--enumerate"),
        run_cli_exit(capsys, "gcs", "--network", str(network), "--enumerate"),
        run_cli_exit(capsys, "validate", "--channel", str(channel))[:1],
    ]
    assert [r[0] for r in results] == [1, 1, 1]
    assert results[0][1:] == results[1][1:]


@pytest.mark.parametrize(
    "argv",
    [
        ("region", "--dist", "uniform"),
        ("region", "--samples", "2"),
        ("region", "--samples", "2", "--out", "svg"),
        ("compare", "--samples", "2"),
        ("extend", "--bound", "4a"),
        ("gcs", "--enumerate"),
    ],
    ids=" ".join,
)
def test_nonrecoverable_channel_is_refused_before_any_output(capsys, tmp_path, argv):
    # a command that prints as it goes (a CSV header, then rows) must refuse
    # the channel before its first line, as the others do
    channel = tmp_path / "channel.json"
    channel.write_text(json.dumps(NONRECOVERABLE_DOC))
    code, out, err = run_cli_exit(capsys, *argv, "--channel", str(channel))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "interference recoverability" in err


# Inputs for the fuzzing test: one good and some malformed files per option.
FUZZ_FILES = {
    "ok-dist.json": json.dumps({"probs": [[0.5, 0.5], [0.25, 0.75]]}),
    "joint-dist.json": json.dumps({"mode": "joint", "probs": [0.25, 0.25, 0.25, 0.25]}),
    "ok-channel.json": json.dumps(XOR2_DOC),
    "ok-net.json": json.dumps(NETWORK_4F),
    "ok-chain.json": json.dumps([["S1", "S2", "D1"], ["S1"]]),
    "unknown-chain.json": json.dumps([["S9"]]),
    "ok-problem.json": json.dumps({"variables": ["A", "B"], "target": {"A B": 1, "A": -1}}),
    "false-problem.json": json.dumps({"variables": ["A", "B"], "target": {"A": 1, "A B": -1}}),
    "bad-problem.json": json.dumps({"variables": ["A", "A"], "target": {"A": 1}}),
}
FUZZ_FILES.update({f"bad-{case}-{name}": text for case, (_, name, text, _) in MALFORMED_FILES.items()})
FUZZ_FILES.update({f"bad-{case}-net.json": json.dumps(doc) for case, (doc, _) in INVALID_NETWORKS.items()})


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")
    paths = {}
    for name, text in FUZZ_FILES.items():
        (root / name).write_text(text)
        paths[name] = str(root / name)
    return paths


def _files(paths, kind):
    return sorted(p for name, p in paths.items() if name.endswith(f"-{kind}.json"))


@st.composite
def cli_argv(draw, paths):
    def pick(options):
        return draw(st.sampled_from(options))

    def maybe(*args):
        return list(args) if draw(st.booleans()) else []

    # good values come more than once, so that most runs get past argument checks
    good_channels = ["xor2", "shift2:2,2,1", "concat3", paths["ok-channel.json"]]
    channels = good_channels * 4 + ["nosuch", "shift2:1,2"] + _files(paths, "channel")
    dists = ["uniform", "seed:3", paths["ok-dist.json"], paths["joint-dist.json"]] * 4
    dists += ["seed:x"] + _files(paths, "dist")
    command = pick(["validate", "region", "gcs", "extend", "prove", "compare"])
    argv = [command]
    if command == "validate":
        argv += ["--channel", pick(channels)]
    elif command == "region":
        argv += ["--channel", pick(channels)] + maybe("--dist", pick(dists))
        argv += maybe("--samples", pick(["1", "2", "0", "x"])) + maybe("--out", pick(["csv", "svg"]))
    elif command == "gcs":
        channel, network = ["--channel", pick(channels)], ["--network", pick(_files(paths, "net"))]
        argv += pick([channel, network] * 3 + [channel + network, []]) + maybe("--dist", pick(dists))
        if draw(st.booleans()):
            argv += ["--enumerate"] + maybe("--max-l", pick(["1", "2", "0", "1500"]))
        else:
            argv += maybe("--chain", pick(_files(paths, "chain")))
    elif command == "extend":
        argv += ["--bound", pick(["4a", "4e", "4f", "ineq5", "nope"]), "--channel", pick(channels)]
        argv += maybe("--k", pick(["1", "1..2", "2"] * 3 + ["0", "9", "2..1", "x", "1..1000000000000"]))
        argv += maybe("--verify")
        argv += maybe("--dist", pick(dists))
    elif command == "prove":
        bound = ["--bound", pick(["4a", "4c", "4f", "nope"])]
        problem = ["--problem", pick(_files(paths, "problem"))]
        argv += pick([bound, problem] * 3 + [bound + problem, []])
    else:
        argv += ["--channel", pick(channels)] + maybe("--samples", pick(["1", "2", "0"]))
    if command in ("region", "compare"):
        argv += maybe("--seed", pick(["0", "7"] * 4 + ["x"]))
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from([None] * 6 + [64]))
def test_cli_exit_codes_over_the_argument_surface(fuzz_files, data, budget):
    argv = data.draw(cli_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    cap = mock.patch.object(networks, "MAX_ATOMS", budget or networks.MAX_ATOMS)
    with cap, refusing_huge_counts(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse answers a bad argument with exit 2
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
