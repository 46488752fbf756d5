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
    # the output the README shows for this file
    assert code == 0 and out == (
        "output entropy after conditioning: Provable\n"
        "  1 * H(V1|X1,Y1,X2,V2,Y2)\n"
        "  1 * H(Y1|X1,V1,X2,V2,Y2)\n"
        "  1 * I(V1;Y1|X1)\n"
        "  1 * I(V1;Y1|X1,V2)\n"
        "  1 * I(V1;X2|X1,Y1,V2)\n"
        "  1 * I(V1;V2|X1,Y1)\n"
        "  1 * I(V1;Y2|X1,Y1,X2,V2)\n"
        "  1 * I(Y1;X2|X1,V1,V2)\n"
        "  1 * I(Y1;V2|X1)\n"
        "  1 * I(Y1;Y2|X1,V1,X2,V2)\n"
        "  -1 * [=]V1 from X1\n"
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
