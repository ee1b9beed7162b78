import hashlib
import json

import pytest

from springerbc.cli import reported, run
from springerbc.errors import InvalidParam, InvariantViolation


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_value_spec_example(capsys):
    code = run(
        ["value", "--theory", "exotic", "--mu", "[]", "--nu", "[1,1]", "--at", "id"]
    )
    out, _ = out_of(capsys)
    assert code == 0
    assert out == "q^4 + 2q^3 + 2q^2 + 2q + 1\n"


def test_value_sp2_and_ascending(capsys):
    code = run(["value", "--theory", "sp2", "--param", "2^2_1", "--at", "id"])
    out, _ = out_of(capsys)
    assert code == 0 and out == "2q + 1\n"
    run(
        [
            "value",
            "--theory",
            "exotic",
            "--mu",
            "[]",
            "--nu",
            "[1]",
            "--at",
            "s1",
            "--ascending",
        ]
    )
    out, _ = out_of(capsys)
    assert out == "1 - q\n"


def test_restrict_spec_example(capsys):
    code = run(["restrict", "--theory", "sp2", "--param", "2^2_1"])
    out, _ = out_of(capsys)
    assert code == 0
    assert out == "q·(2^1_1) + (1^2_0)\n"


def test_restrict_multiterm_coefficient(capsys):
    run(["restrict", "--theory", "sp2", "--param", "2^1_1 1^2_0"])
    out, _ = out_of(capsys)
    assert out == "(q^2 + q)·(2^1_1) + (1^2_0)\n"


def test_restrict_json_stable(capsys):
    argv = ["restrict", "--theory", "exotic", "--mu", "[1,1]", "--nu", "[1]",
            "--format", "json"]
    assert run(argv) == 0
    first, _ = out_of(capsys)
    assert run(argv) == 0
    second, _ = out_of(capsys)
    assert first == second
    doc = json.loads(first)
    assert doc == {
        "rank": 2,
        "terms": [
            {"param": "mu=[1,1] nu=[]", "coeff": [1, 1]},
            {"param": "mu=[1] nu=[1]", "coeff": [-1, 0, 1]},
            {"param": "mu=[] nu=[2]", "coeff": [1]},
        ],
    }


def test_restrict_q1(capsys):
    run(["restrict", "--theory", "sp2", "--param", "1^4_0", "--q1"])
    out, _ = out_of(capsys)
    assert out == "4·(1^2_0)\n"


def test_value_json_has_both_forms(capsys):
    run(
        [
            "value",
            "--theory",
            "exotic",
            "--mu",
            "[1]",
            "--nu",
            "[1]",
            "--at",
            "id",
            "--format",
            "json",
        ]
    )
    out, _ = out_of(capsys)
    doc = json.loads(out)
    assert doc == {
        "param": "mu=[1] nu=[1]",
        "at": "id",
        "coeff": [1, 2],
        "poly": "2q + 1",
    }


def test_table(capsys):
    code = run(["table", "--theory", "exotic", "--n", "1"])
    out, _ = out_of(capsys)
    assert code == 0
    assert out.splitlines() == [
        "mu=[1] nu=[]\t1\t1",
        "mu=[] nu=[1]\tq + 1\t-q + 1",
    ]


# sha256 of the rank-12 tables' stdout, pinned from the term-by-term
# formatter; the default-order digests are the benchmark's TABLE_DIGESTS.
# Rank 12 has multi-digit coefficients of both signs up to degree 72, which
# the golden corpus (n <= 3) does not reach.
RANK_12_DIGESTS = {
    ("sp2", False): "a32783a5f97b783ba1f95ebea58d1f10f0d095c26c3807d958eb652fb4898f9c",
    ("sp2", True): "ea9a97e43450860bfd2c4b8063f84d078212b0d0a57b71e1b3021f2e4f89e71a",
    ("exotic", False): "8ec9fc84d614e773f672cdb760afc74713dbed5bcbc91b3c3886a84ea6a682a0",
    ("exotic", True): "b6c9735a71e94b7e3baa3025f6874bdfae7180550da27a54db2551d7ebc40a44",
}


@pytest.mark.parametrize("theory,ascending", RANK_12_DIGESTS)
def test_rank_12_table_text_is_pinned(capsys, theory, ascending):
    argv = ["table", "--theory", theory, "--n", "12"]
    assert run(argv + ["--ascending"] * ascending) == 0
    out, err = out_of(capsys)
    assert err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == RANK_12_DIGESTS[theory, ascending]


def test_iota_both_ways(capsys):
    run(["iota", "--param", "2^2_1"])
    out, _ = out_of(capsys)
    assert out == "mu=[1] nu=[1]\n"
    run(["iota", "--inverse", "--mu", "[]", "--nu", "[2]"])
    out, _ = out_of(capsys)
    assert out == "2^2_0\n"


def test_symbol(capsys):
    code = run(["symbol", "--mu", "[1]", "--nu", "[1]", "--r", "4", "--s", "2",
                "--m", "1"])
    out, _ = out_of(capsys)
    assert code == 0
    assert out == "top=[5,0]\nbottom=[3]\n"


def test_enumerate(capsys):
    run(["enumerate", "--theory", "sp2", "--n", "1"])
    out, _ = out_of(capsys)
    assert out == "2^1_1\n1^2_0\n"


def test_paving(capsys):
    run(["paving", "--param", "2^2_1"])
    out, _ = out_of(capsys)
    assert out == "lemma_hypothesis=true theorem_applies=true\n"
    run(["paving", "--param", "2^3_1", "--format", "json"])
    out, _ = out_of(capsys)
    assert json.loads(out) == {"lemma_hypothesis": False, "theorem_applies": False}


# Exact stdout and exit code for invocations the golden corpus does not hold:
# the JSON form of most subcommands, and the edge cases of the text form.
PINNED = [
    (
        "equivalence --n 2",
        0,
        "n=1 2^1_1: ok\nn=1 1^2_0: ok\nn=2 4^1_2: ok\nn=2 2^2_1: ok\n"
        "n=2 2^2_0: ok\nn=2 2^1_1 1^2_0: ok\nn=2 1^4_0: ok\n",
    ),
    (
        "equivalence --n 2 --format json",
        0,
        '{"n": 1, "pass": true, "params": [{"param": "2^1_1", "pass": true, '
        '"detail": ""}, {"param": "1^2_0", "pass": true, "detail": ""}]}\n'
        '{"n": 2, "pass": true, "params": [{"param": "4^1_2", "pass": true, '
        '"detail": ""}, {"param": "2^2_1", "pass": true, "detail": ""}, '
        '{"param": "2^2_0", "pass": true, "detail": ""}, '
        '{"param": "2^1_1 1^2_0", "pass": true, "detail": ""}, '
        '{"param": "1^4_0", "pass": true, "detail": ""}]}\n',
    ),
    (
        "table --theory exotic --n 2 --format json",
        0,
        '[{"param": "mu=[2] nu=[]", "id": [1], "s1": [1], "id_poly": "1", '
        '"s1_poly": "1"}, {"param": "mu=[1,1] nu=[]", "id": [1, 2, 1], '
        '"s1": [1, 0, 1], "id_poly": "q^2 + 2q + 1", "s1_poly": "q^2 + 1"}, '
        '{"param": "mu=[1] nu=[1]", "id": [1, 2], "s1": [1], '
        '"id_poly": "2q + 1", "s1_poly": "1"}, {"param": "mu=[] nu=[2]", '
        '"id": [1, 2, 1], "s1": [1, 0, -1], "id_poly": "q^2 + 2q + 1", '
        '"s1_poly": "-q^2 + 1"}, {"param": "mu=[] nu=[1,1]", '
        '"id": [1, 2, 2, 2, 1], "s1": [1, 0, 0, 0, -1], '
        '"id_poly": "q^4 + 2q^3 + 2q^2 + 2q + 1", "s1_poly": "-q^4 + 1"}]\n',
    ),
    ("table --theory sp2 --n 0", 0, "\t1\t1\n"),
    (
        "oracle --theory sp2 --param 2^2_1 --q 2",
        0,
        "param 2^2_1 q=2: PASS\n  2^1_1: tally=2 formula=2\n"
        "  1^2_0: tally=1 formula=1\n  empty_fiber=0\n",
    ),
    (
        "symbol --mu [1] --nu [1] --r 4 --s 2 --m 1 --format json",
        0,
        '{"top": [5, 0], "bottom": [3], "r": 4, "s": 2, "m": 1}\n',
    ),
    (
        "paving --param 2^2_1 --format json",
        0,
        '{"lemma_hypothesis": true, "theorem_applies": true}\n',
    ),
    ("enumerate --theory sp2 --n 1 --format json", 0, '["2^1_1", "1^2_0"]\n'),
    ("enumerate --theory sp2 --n 0", 0, "\n"),
    ("iota --param 2^2_1 --format json", 0, '{"param": "mu=[1] nu=[1]"}\n'),
    (
        "restrict --theory sp2 --param 1^4_0 --q1 --format json",
        0,
        '{"rank": 1, "terms": [{"param": "1^2_0", "coeff": [4]}]}\n',
    ),
]


@pytest.mark.parametrize("line,code,expected", PINNED, ids=[c for c, _, _ in PINNED])
def test_pinned_stdout_and_exit_code(capsys, line, code, expected):
    assert run(line.split()) == code
    out, err = out_of(capsys)
    assert out == expected and not err


# Exact stderr for one rejected input per kind of precondition the CLI can
# reach: each exits 2 and prints nothing on stdout.
REJECTED = [
    ("oracle --theory sp2 --param 2^1_1 --q 3", "need characteristic 2, got 3"),
    ("oracle --theory exotic --mu [1] --nu [] --q 2", "need odd characteristic"),
    (
        "oracle --theory exotic --mu [1] --nu [] --q 65",
        "field size must be in [2, 64], got 65",
    ),
    ("oracle --theory exotic --mu [1] --nu [] --q 6", "6 is not a prime power"),
    # refused before the 42 x 42 model is built
    (
        "oracle --theory exotic --mu [21] --nu [] --q 3",
        "rank 21 is above the largest oracle rank, 20",
    ),
    (
        "symbol --mu [1] --nu [] --r 2 --s 0 --m 0",
        "need r >= s + n >= 2n, got r=2, s=0, n=1",
    ),
    (
        "restrict --theory exotic --mu [1,0] --nu []",
        "partition parts must be positive: '[1,0]'",
    ),
    # int() reads "1_0" as 10 and a full-width digit as its ASCII twin
    (
        "value --theory exotic --mu [1_0] --nu [] --at id",
        "partition parts must be integers: '[1_0]'",
    ),
    (
        "iota --inverse --mu [1_0] --nu [+1]",
        "partition parts must be integers: '[1_0]'",
    ),
    (
        "restrict --theory exotic --mu [３,1] --nu []",
        "partition parts must be integers: '[３,1]'",
    ),
    ("restrict --theory sp2 --param ２^２_１", "bad parameter token '２^２_１'"),
    # an option of the other theory's parameter is refused, not ignored
    (
        "symbol --mu [] --nu [] --r 4 --s 2 --m 1 --param x",
        "an exotic parameter takes --mu and --nu, not --param",
    ),
    (
        "restrict --theory exotic --mu [1] --nu [] --param 9^9_9",
        "an exotic parameter takes --mu and --nu, not --param",
    ),
    ("paving --param 2^2_1 --mu [5]", "an sp2 parameter takes --param, not --mu or --nu"),
    ("iota --param 2^2_1 --mu [7]", "an sp2 parameter takes --param, not --mu or --nu"),
    # int() refuses a string of more than 4300 digits
    (
        f"oracle --theory sp2 --param {'1' * 5000}^1_1 --q 2",
        f"bad parameter token '{'1' * 5000}^1_1'",
    ),
]


@pytest.mark.parametrize("line,message", REJECTED, ids=[c[:50] for c, _ in REJECTED])
def test_rejected_input_exits_2_with_its_message(capsys, line, message):
    assert run(line.split()) == 2
    assert out_of(capsys) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--theory", "sp2", "--param", "", "--q", "2"],
        ["--theory", "exotic", "--mu", "[]", "--nu", "[]", "--q", "3"],
    ],
    ids=["sp2", "exotic"],
)
def test_rank_0_oracle_gives_the_oracles_rank_message(capsys, argv):
    assert run(["oracle", *argv]) == 2
    assert out_of(capsys) == ("", "error: oracle needs rank >= 1\n")


@pytest.mark.parametrize("text", ["[a]", "[1,,2]", "[1.5]"])
def test_a_part_that_is_not_an_integer_is_named_with_its_text(capsys, text):
    line = ["restrict", "--theory", "exotic", "--mu", text, "--nu", "[]"]
    assert run(line) == 2
    expected = f"error: partition parts must be integers: {text!r}\n"
    assert out_of(capsys) == ("", expected)


def test_reported_turns_a_broken_invariant_into_exit_2(capsys):
    def broken():
        raise InvariantViolation("iota(x) = y has rank 3")

    assert reported(broken) == 2
    assert out_of(capsys) == ("", "error: iota(x) = y has rank 3\n")
    assert issubclass(InvalidParam, ValueError)


def test_equivalence(capsys):
    code = run(["equivalence", "--n", "2"])
    out, _ = out_of(capsys)
    assert code == 0
    assert all(line.endswith(": ok") for line in out.splitlines())
    assert len(out.splitlines()) == 2 + 5


def test_oracle(capsys):
    code = run(
        ["oracle", "--theory", "sp2", "--param", "2^2_1", "--q", "2",
         "--format", "json"]
    )
    out, _ = out_of(capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["tally"] == {"2^1_1": 2, "1^2_0": 1}
    code = run(
        ["oracle", "--theory", "exotic", "--mu", "[1]", "--nu", "[1]", "--q", "3"]
    )
    out, _ = out_of(capsys)
    assert code == 0
    assert out.splitlines()[0] == "param mu=[1] nu=[1] q=3: PASS"


def test_oracle_failure_exit_code(capsys, monkeypatch):
    import springerbc.cli as cli

    monkeypatch.setattr(
        cli,
        "verify_against_formula",
        lambda param, fieldctx: {
            "param": "x",
            "q": 2,
            "tally": {},
            "formula": {},
            "empty_fiber": 0,
            "totals_match": False,
            "pass": False,
        },
    )
    code = run(["oracle", "--theory", "sp2", "--param", "2^2_1", "--q", "2"])
    out_of(capsys)
    assert code == 3


def test_equivalence_mismatch_exit_code(capsys, monkeypatch):
    import springerbc.cli as cli
    from springerbc.restrict import EquivalenceReport

    monkeypatch.setattr(
        cli, "check_equivalence", lambda n: EquivalenceReport(n, [("x", False, "d")])
    )
    assert run(["equivalence", "--n", "2"]) == 3
    out, _ = out_of(capsys)
    assert out == "n=1 x: MISMATCH d\nn=2 x: MISMATCH d\n"
    assert run(["equivalence", "--n", "1", "--format", "json"]) == 3
    out, _ = out_of(capsys)
    assert json.loads(out) == {
        "n": 1,
        "pass": False,
        "params": [{"param": "x", "pass": False, "detail": "d"}],
    }


def test_unknown_option_exits_2(capsys):
    # --jobs went with the process pool; like any option the parser does not
    # know, it is refused by name
    oracle = ["oracle", "--theory", "exotic", "--mu", "[1]", "--nu", "[1]", "--q", "3"]
    assert run(oracle + ["--jobs", "0"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert "unrecognized arguments: --jobs 0" in err


def test_too_deep_value_exits_2(capsys):
    argv = ["value", "--theory", "exotic", "--mu", "[1000]", "--nu", "[]", "--at", "id"]
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert (out, err) == ("", "error: rank 1000 is too deep for the value recursion\n")


def test_oversized_oracle_and_table_exit_2(capsys):
    oracle = ["oracle", "--theory", "sp2", "--param", "1^10_0", "--q", "64"]
    assert run(oracle) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error: 1^10_0 over GF(64) has 18300341342965825 kernel lines")
    for argv in (
        ["table", "--theory", "sp2", "--n", "30"],
        ["enumerate", "--theory", "sp2", "--n", "30"],
        ["equivalence", "--n", "30"],
    ):
        assert run(argv) == 2
        out, err = out_of(capsys)
        assert (out, err) == ("", "error: rank 30 is above the largest table rank, 20\n")


def test_usage_errors(capsys):
    assert run(["restrict", "--theory", "sp2"]) == 2  # missing --param
    out_of(capsys)
    assert run(["restrict", "--theory", "sp2", "--param", "3^1_1"]) == 2  # invalid
    out_of(capsys)
    assert run(["restrict", "--theory", "bogus", "--param", "2^2_1"]) == 2
    out_of(capsys)
    assert run(["frobnicate"]) == 2
    out_of(capsys)
    assert run(["symbol", "--r", "4", "--s", "2", "--m", "1"]) == 2  # no --mu/--nu
    out_of(capsys)
    assert run(["paving"]) == 2  # no --param
    out_of(capsys)
    # --ascending belongs to the commands that print polynomials
    assert run(["iota", "--param", "2^2_1", "--ascending"]) == 2
    out_of(capsys)
    assert run(["enumerate", "--theory", "sp2", "--n", "1", "--ascending"]) == 2
    out_of(capsys)
    for argv in (
        ["table", "--theory", "sp2", "--n", "-1"],
        ["enumerate", "--theory", "exotic", "--n", "-3"],
        ["equivalence", "--n", "0"],
    ):
        assert run(argv) == 2, argv
        out, err = out_of(capsys)
        assert not out and err.startswith("error:"), argv
