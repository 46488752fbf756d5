import contextlib
import io
import json
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        ("extend", "--bound", "ineq5", "--channel", "xor2"),  # 3-user bound, 2-user channel
        ("region", "--channel", "concat3", "--out", "svg"),
        ("gcs", "--enumerate"),  # neither --channel nor --network
        ("gcs", "--channel", "xor2"),  # neither --chain nor --enumerate
        ("region", "--channel", "xor2", "--dist", "seed:3", "--samples", "1"),  # exclusive options
        ("region", "--channel", "xor2", "--dist", "missing.json", "--samples", "1"),
        ("region", "--channel", "xor2", "--dist", "uniform", "--samples", "2", "--out", "svg"),
    ],
)
def test_bad_numeric_arguments_are_usage_errors(capsys, argv):
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "error" in err


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


def test_joint_law_is_a_validation_failure_for_the_bound_commands(capsys, tmp_path):
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({"mode": "joint", "probs": [0.5, 0, 0, 0.5]}))
    for argv in (["extend", "--bound", "4e", "--k", "1..2"], ["extend", "--bound", "4f", "--verify"], ["region"]):
        code, out, err = run_cli_exit(capsys, *argv, "--channel", "xor2", "--dist", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "product" in err


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


@pytest.mark.parametrize("raw", ["lots", "0", "-5"])
def test_bad_budget_setting_is_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("DICBOUND_BUDGET_ATOMS", raw)
    code, out, err = run_cli_exit(capsys, "compare", "--channel", "xor2", "--samples", "1")
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "DICBOUND_BUDGET_ATOMS" in err


XOR2_DOC = {"user_count": 2, "alphabet_sizes": [2, 2], "g": [[0, 1], [0, 1]], "f": [[0, 1, 1, 0]] * 2}
NETWORK_4F = {"channel": {"family": "xor2"}, "recipe": {"counts": [2, 1], "wiring": {
    "1^1": {"2": 1}, "1^2": {"2": 1}, "2^1": {"1": 1}}}}

# id -> (option, file name, file text): each file is malformed for that option
MALFORMED_FILES = {
    "dist-list": ("--dist", "dist.json", "[0.5, 0.5]"),
    "dist-string-keys": (
        "--dist", "dist.json", json.dumps({"mode": "joint", "probs": {"00": 0.5, "11": 0.5}})
    ),
    "dist-joint-length": ("--dist", "dist.json", json.dumps({"mode": "joint", "probs": [0.5, 0.5]})),
    "dist-sum": ("--dist", "dist.json", json.dumps({"probs": [[0.5, 0.4], [0.5, 0.5]]})),
    "dist-not-numbers": ("--dist", "dist.json", json.dumps({"probs": [["a", "b"], [0.5, 0.5]]})),
    "dist-not-json": ("--dist", "dist.json", "{not json"),
    "channel-string-entry": (
        "--channel", "channel.json", json.dumps({**XOR2_DOC, "g": [[0, "a"], [0, 1]]})
    ),
    "channel-float-entry": (
        "--channel", "channel.json", json.dumps({**XOR2_DOC, "f": [[0, 1, 1, 0.5], [0, 1, 1, 0]]})
    ),
    "channel-float-user-count": ("--channel", "channel.json", json.dumps({**XOR2_DOC, "user_count": 2.0})),
    "channel-string-size": ("--channel", "channel.json", json.dumps({**XOR2_DOC, "alphabet_sizes": ["2", 2]})),
    "channel-params": (
        "--channel", "channel.json", json.dumps({"family": "shift2", "params": "2,2,1"})
    ),
    "channel-list": ("--channel", "channel.json", "[1, 2]"),
    "network-no-wiring": (
        "--network", "net.json", json.dumps({**NETWORK_4F, "recipe": {"counts": [2, 1]}})
    ),
    "network-no-channel": ("--network", "net.json", json.dumps({"recipe": NETWORK_4F["recipe"]})),
    "network-wiring-list": (
        "--network", "net.json", json.dumps({**NETWORK_4F, "recipe": {"counts": [2, 1], "wiring": [1]}})
    ),
    "chain-object": ("--chain", "chain.json", json.dumps({"a": ["S1"]})),
    "chain-flat-list": ("--chain", "chain.json", json.dumps(["S1", "D1"])),
}


@pytest.mark.parametrize("option,name,text", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_malformed_input_file_is_usage_error(capsys, tmp_path, option, name, text):
    path = tmp_path / name
    path.write_text(text)
    argv = {
        "--dist": ("region", "--channel", "xor2", "--dist", str(path)),
        "--channel": ("region", "--channel", str(path)),
        "--network": ("gcs", "--network", str(path), "--enumerate"),
        "--chain": ("gcs", "--channel", "xor2", "--chain", str(path)),
    }[option]
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


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
}


@pytest.mark.parametrize("doc,message", INVALID_NETWORKS.values(), ids=INVALID_NETWORKS)
def test_network_that_fails_the_checks_is_a_validation_failure(capsys, tmp_path, doc, message):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
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
FUZZ_FILES.update({f"bad-{case}-{name}": text for case, (_, name, text) in MALFORMED_FILES.items()})
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
            argv += ["--enumerate"] + maybe("--max-l", pick(["1", "2", "0"]))
        else:
            argv += maybe("--chain", pick(_files(paths, "chain")))
    elif command == "extend":
        argv += ["--bound", pick(["4a", "4e", "4f", "ineq5", "nope"]), "--channel", pick(channels)]
        argv += maybe("--k", pick(["1", "1..2", "2"] * 3 + ["0", "9", "2..1", "x"])) + maybe("--verify")
        argv += maybe("--dist", pick(dists))
    elif command == "prove":
        bound = ["--bound", pick(["4a", "4c", "4f", "nope"])]
        problem = ["--problem", pick(_files(paths, "problem"))]
        argv += pick([bound, problem] * 3 + [bound + problem, []])
    else:
        argv += ["--channel", pick(channels)] + maybe("--samples", pick(["1", "2", "0"]))
    argv += maybe("--seed", pick(["0", "7"] * 4 + ["x"]))
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from([None] * 6 + ["64", "lots", "0"]))
def test_cli_exit_codes_over_the_argument_surface(fuzz_files, data, budget):
    argv = data.draw(cli_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("DICBOUND_BUDGET_ATOMS", None)
        if budget is not None:
            os.environ["DICBOUND_BUDGET_ATOMS"] = budget
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse answers a bad argument with exit 2
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
