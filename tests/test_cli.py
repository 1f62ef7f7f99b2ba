"""Command-line surface: exit codes, stable text lines, JSON reports."""

import json
import time

import pytest

from gcdcensus import condition_set
from gcdcensus.cli import document_dict, main, parse_document

GOOD = {"k": 3, "conditions": [{"indices": [1, 2], "gcd": 6}, {"indices": [2, 3], "gcd": 10}]}
BAD = {
    "k": 3,
    "conditions": [
        {"indices": [1, 2], "gcd": 2},
        {"indices": [1, 3], "gcd": 2},
        {"indices": [2, 3], "gcd": 1},
    ],
}
PAIR2 = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": 1}]}
CHAIN = {"k": 3, "conditions": [{"indices": [1, 2], "gcd": 1}, {"indices": [2, 3], "gcd": 1}]}
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]  # primes below 50


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="system.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


class TestParsing:
    def test_round_trip(self):
        cs = parse_document(json.dumps(GOOD))
        assert cs == condition_set(3, {(1, 2): 6, (2, 3): 10})
        assert parse_document(json.dumps(document_dict(cs))) == cs

    def test_gcd_as_string_carries_big_integers(self):
        doc = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": str(2**130)}]}
        cs = parse_document(json.dumps(doc))
        assert cs.conditions[0].value == 2**130

    def test_field_anchored_errors(self):
        with pytest.raises(ValueError, match="missing field: k"):
            parse_document('{"conditions": []}')
        with pytest.raises(ValueError, match=r"conditions\[0\].gcd"):
            parse_document('{"k": 2, "conditions": [{"indices": [1, 2], "gcd": "x"}]}')
        for digits in ("\u0663", "\u00b2"):  # Arabic-Indic three, superscript two
            doc = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": digits}]}
            with pytest.raises(ValueError, match=r"conditions\[0\].gcd"):
                parse_document(json.dumps(doc))
        with pytest.raises(ValueError, match=r"conditions\[1\]"):
            parse_document(
                '{"k": 2, "conditions": [{"indices": [1, 2], "gcd": 1}, {"indices": [1], "gcd": 1}]}'
            )

    def test_gcd_beyond_the_digit_limit_names_the_field(self):
        doc = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": "1" * 5000}]}
        with pytest.raises(ValueError, match=r"^conditions\[0\]\.gcd: .*4300"):
            parse_document(json.dumps(doc))

    def test_json_error_carries_position(self):
        with pytest.raises(ValueError, match="line"):
            parse_document('{"k": 2,\n')

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON")

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[]", "top-level document"),
            ('{"k": "3", "conditions": []}', "field k"),
            ('{"k": 2, "conditions": {}}', "field conditions"),
            ('{"k": 2, "conditions": [7]}', "conditions[0]: expected an object"),
            ('{"k": 2, "conditions": [{"indices": [1, 2]}]}', "conditions[0]: missing field gcd"),
            ('{"k": 2, "conditions": [{"indices": [1, true], "gcd": 1}]}', "conditions[0].indices"),
            ('{"k": 2, "conditions": [{"indices": [1, 2], "gcd": 1.5}]}', "conditions[0].gcd"),
            ('{"k": 2, "conditions": [{"indices": [1, 3], "gcd": 1}]}', "index 3 outside 1..2"),
            ('{"k": 2, "conditions": [{"indices": [0, 1], "gcd": 1}]}', "conditions[0]: indices must be >= 1"),
        ],
    )
    def test_rejection_exits_2_naming_the_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "system.json"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("factors", "--primes")])
    def test_bad_integer_list_exits_2_naming_the_flag(self, write_doc, capsys, command, flag):
        assert main([command, write_doc(GOOD), flag, "1,x"]) == 2
        assert f"error: {flag}: expected comma-separated integers" in capsys.readouterr().err


class TestCheck:
    def test_admissible(self, write_doc, capsys):
        assert main(["check", write_doc(GOOD)]) == 0
        assert capsys.readouterr().out.strip() == "admissible"

    def test_inadmissible(self, write_doc, capsys):
        assert main(["check", write_doc(BAD)]) == 1
        assert capsys.readouterr().out.strip() == "inadmissible: p=2, T={2,3}"

    def test_malformed(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"k": ')
        assert main(["check", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.json")]) == 2

    def test_unfactorable_target_is_resource_exit(self, write_doc, capsys):
        # two primes just below 2^64: Pollard's rho would need about 2^32 steps
        semiprime = str((2**64 - 59) * (2**64 - 83))
        path = write_doc({"k": 2, "conditions": [{"indices": [1, 2], "gcd": semiprime}]})
        start = time.perf_counter()
        assert main(["check", path]) == 0  # deciding factors nothing
        assert main(["witness", path]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out.splitlines() == ["admissible", f"{semiprime} {semiprime}"]
        start = time.perf_counter()
        assert main(["factors", path]) == 3
        assert time.perf_counter() - start < 10
        assert "128-bit target" in capsys.readouterr().err
        # naming the violating prime factors the target, since q_{2,3} = semiprime
        bad = [{"indices": [1, 2], "gcd": semiprime}, {"indices": [1, 3], "gcd": semiprime}]
        path = write_doc({"k": 3, "conditions": bad + [{"indices": [2, 3], "gcd": 1}]})
        assert main(["check", path]) == 3
        assert "128-bit target" in capsys.readouterr().err

    def test_violation_is_named_without_factoring_across_targets(self, write_doc, capsys):
        # n_1 = n_2 = P*Q, so q_{1,2} is the 128-bit product of two prime targets
        P, Q = 2**64 - 59, 2**64 - 83
        edges = {(1, 2): 1, (1, 3): P, (2, 3): P, (1, 4): Q, (2, 4): Q}
        doc = {"k": 4, "conditions": [{"indices": list(t), "gcd": str(v)} for t, v in edges.items()]}
        path = write_doc(doc)
        start = time.perf_counter()
        assert main(["check", path]) == 1
        assert main(["factors", path]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out.strip() == f"inadmissible: p={Q}, T={{1,2}}"
        # an unfactorable target that shares no prime with a violation is never factored
        semiprime = (2**64 - 59) * (2**64 - 83)
        doc = {"k": 5, "conditions": BAD["conditions"] + [{"indices": [4, 5], "gcd": str(semiprime)}]}
        assert main(["check", write_doc(doc)]) == 1
        assert capsys.readouterr().out.strip() == "inadmissible: p=2, T={2,3}"

    def test_small_violating_prime_is_found_before_factoring(self, write_doc, capsys):
        # q_{2,3} = 2S: trial division names p = 2 without splitting the 128-bit S
        double = str(2 * (2**64 - 59) * (2**64 - 83))
        bad = [{"indices": [1, 2], "gcd": double}, {"indices": [1, 3], "gcd": double}]
        path = write_doc({"k": 3, "conditions": bad + [{"indices": [2, 3], "gcd": 1}]})
        for command in ("check", "witness", "factors"):
            start = time.perf_counter()
            assert main([command, path]) == 1
            assert time.perf_counter() - start < 1
            out = capsys.readouterr()
            assert "p=2, T={2,3}" in out.out + out.err

    def test_large_semiprime_is_refused_in_bounded_time(self, write_doc, capsys):
        # two primes just below 2^256: the rho budget shrinks with the bit length
        semiprime = (2**256 - 189) * (2**256 - 357)
        doc = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": str(semiprime)}]}
        start = time.perf_counter()
        assert main(["factors", write_doc(doc)]) == 3
        assert time.perf_counter() - start < 10
        assert "512-bit target" in capsys.readouterr().err

    def test_largest_targets_are_refused_in_bounded_time(self, write_doc, capsys):
        # 4249 digits, the Mersenne primes 2^9689-1 and 2^4423-1: above 1024
        # bits the rho budget shrinks with the square of the bit length, to
        # 2^22 * 128 * 1024 / 14112^2 = 2760 steps
        semiprime = (2**9689 - 1) * (2**4423 - 1)
        doc = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": str(semiprime)}]}
        start = time.perf_counter()
        assert main(["factors", write_doc(doc)]) == 3
        # about 7 s of this is one Miller-Rabin round, whose cost rho's budget cannot cut
        assert time.perf_counter() - start < 15
        assert "14112-bit target exceeds the 2760-step limit" in capsys.readouterr().err


class TestWitness:
    def test_prints_tuple(self, write_doc, capsys):
        assert main(["witness", write_doc(GOOD)]) == 0
        assert capsys.readouterr().out.strip() == "6 30 10"

    def test_all_ones(self, write_doc, capsys):
        doc = {"k": 4, "conditions": [{"indices": [1, 2, 3, 4], "gcd": 1}]}
        assert main(["witness", write_doc(doc)]) == 0
        assert capsys.readouterr().out.strip() == "1 1 1 1"

    def test_inadmissible_exit(self, write_doc, capsys):
        assert main(["witness", write_doc(BAD)]) == 1
        assert "p=2" in capsys.readouterr().err


class TestConstant:
    def test_text_lines(self, write_doc, capsys):
        assert main(["constant", write_doc(PAIR2), "--prime-bound", "100000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        fields = dict(line.split(" ", 1) for line in lines)
        assert float(fields["value"]) == pytest.approx(0.6079271, abs=1e-4)
        assert float(fields["lower"]) <= float(fields["value"]) <= float(fields["upper"])
        assert fields["prime_cutoff"] == "99991"

    def test_json_fields(self, write_doc, capsys):
        assert main(["constant", write_doc(PAIR2), "--prime-bound", "10000", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"value", "lower", "upper", "prime_cutoff", "factor_trace"}
        assert doc["factor_trace"] is None

    def test_trace_text_lines(self, write_doc, capsys):
        path = write_doc(GOOD)
        assert main(["constant", path, "--prime-bound", "10000", "--trace"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "value 0.000143200137991",
            "lower 0.000143114243679",
            "upper 0.000143286083855",
            "prime_cutoff 9973",
            "factor 2 5/64 0.078125",
            "factor 3 16/243 0.0658436213992",
            "factor 5 96/3125 0.03072",
            "factor 7 330/343 0.962099125364",
            "factor 11 1310/1331 0.984222389181",
            "factor 13 2172/2197 0.988620846609",
            "factor 17 4880/4913 0.993283126399",
            "factor 19 6822/6859 0.994605627643",
            "factor 23 12122/12167 0.996301471193",
            "factor 29 24332/24389 0.997662880807",
            "factor 31 29730/29791 0.997952401732",
            "factor 37 50580/50653 0.998558821787",
            "factor 41 68840/68921 0.998824741371",
            "factor 43 79422/79507 0.998930911744",
            "factor 47 103730/103823 0.999104244724",
        ]
        assert main(["constant", path, "--prime-bound", "10000"]) == 0
        assert capsys.readouterr().out.splitlines() == lines[:4]

    def test_trace_lists_small_primes(self, write_doc, capsys):
        assert (
            main(["constant", write_doc(GOOD), "--prime-bound", "10000", "--trace", "--format", "json"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        traced = {entry["p"]: entry for entry in doc["factor_trace"]}
        assert traced[2]["factor"] == "5/64"
        assert traced[2]["value"] == pytest.approx(5 / 64)

    @pytest.mark.parametrize(
        "doc, cutoff, expected",
        [
            (PAIR2, 2, [2]),
            (GOOD, 30, SMALL_PRIMES[:10]),
            # a target prime beyond the listed small primes is traced too
            ({"k": 2, "conditions": [{"indices": [1, 2], "gcd": 53}]}, 60, SMALL_PRIMES + [53]),
        ],
    )
    def test_trace_lists_primes_to_cutoff_and_targets(self, write_doc, capsys, doc, cutoff, expected):
        path = write_doc(doc)
        assert main(["constant", path, "--prime-bound", str(cutoff), "--trace", "--format", "json"]) == 0
        traced = json.loads(capsys.readouterr().out)["factor_trace"]
        assert [entry["p"] for entry in traced] == expected

    @pytest.mark.parametrize(
        "command", [["constant"], ["verify", "--limit", "10"], ["factors"]], ids=lambda c: c[0]
    )
    def test_cover_is_not_an_option(self, write_doc, capsys, command):
        # the constant does not depend on the cover; find_cover picks it
        with pytest.raises(SystemExit) as exc:
            main([*command, write_doc(CHAIN), "--cover", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cover 1" in capsys.readouterr().err

    def test_inadmissible_exit(self, write_doc):
        assert main(["constant", write_doc(BAD)]) == 1

    def test_cutoff_too_small_is_resource_exit(self, write_doc):
        doc = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": 101}]}
        assert main(["constant", write_doc(doc), "--prime-bound", "50"]) == 3

    def test_cutoff_above_limit_is_resource_exit(self, write_doc, capsys):
        path = write_doc(PAIR2)
        for cmd in (["constant", path], ["verify", path, "--limit", "10"]):
            assert main(cmd + ["--prime-bound", str(10**10 + 1)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "10000000000" in captured.err


class TestCountVerify:
    def test_count_text(self, write_doc, capsys):
        assert main(["count", write_doc(PAIR2), "--limit", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x 10"
        assert lines[1] == "count 63"
        assert lines[2] == "density 0.63"

    def test_count_json(self, write_doc, capsys):
        assert main(["count", write_doc(PAIR2), "--limit", "10", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"x": 10, "count": 63, "density": 0.63}

    def test_count_empty_system(self, write_doc, capsys):
        doc = {"k": 2, "conditions": []}
        assert main(["count", write_doc(doc), "--limit", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "count 25"
        assert out[2] == "density 1"

    def test_count_guard_exit(self, write_doc):
        assert main(["count", write_doc(PAIR2), "--limit", "10000000"]) == 3

    def test_verify_json_fields(self, write_doc, capsys):
        code = main(
            [
                "verify",
                write_doc(PAIR2),
                "--limit",
                "500",
                "--prime-bound",
                "10000",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"x", "count", "density", "constant", "gap", "normalized_error"} <= set(doc)
        assert doc["gap"] <= 0.01

    def test_verify_text_lines_follow_json_keys(self, write_doc, capsys):
        argv = ["verify", write_doc(PAIR2), "--limit", "50", "--prime-bound", "1000"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [line.split(" ", 1)[0] for line in lines] == list(doc)
        assert lines[1] == f"count {doc['count']}"

    def test_verify_informational_exit(self, write_doc):
        assert main(["verify", write_doc(PAIR2), "--limit", "10", "--prime-bound", "1000"]) == 0


class TestFactors:
    def test_text_output(self, write_doc, capsys):
        assert main(["factors", write_doc(GOOD), "--primes", "2"]) == 0
        out = capsys.readouterr().out
        assert "p 2" in out
        assert "local_factor 5/64" in out

    def test_defaults_to_target_primes(self, write_doc, capsys):
        assert main(["factors", write_doc(GOOD), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [entry["p"] for entry in doc] == [2, 3, 5]
        assert doc[0]["z_set"] == []
        assert doc[1]["z_set"] == [3]

    def test_no_primes_available(self, write_doc):
        assert main(["factors", write_doc(PAIR2)]) == 2

    def test_inadmissible_exit(self, write_doc):
        assert main(["factors", write_doc(BAD), "--primes", "2"]) == 1


class TestStdinAndThreads:
    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PAIR2)))
        assert main(["count", "-", "--limit", "10"]) == 0
        assert "count 63" in capsys.readouterr().out
