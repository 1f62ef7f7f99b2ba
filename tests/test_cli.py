"""Command-line surface: exit codes, stable text lines, JSON reports."""

import json
import os
import time
from itertools import combinations

import pytest

import gcdcensus
from gcdcensus import condition_set
from gcdcensus.cli import document_dict, main, parse_document

from helpers import fresh_python

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
# results past Python's 4300-digit limit on int to str conversion
LONG_WITNESS = {"k": 3, "conditions": [{"indices": [1, 2], "gcd": str(10**2500 + 1)}, {"indices": [1, 3], "gcd": str(10**2500 + 3)}]}
MERSENNE12 = {"k": 12, "conditions": [{"indices": list(range(1, 13)), "gcd": str(2**1279 - 1)}]}
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]  # primes below 50
SUBMODULES = [f"gcdcensus.{m}" for m in "admissibility cli counting density errors model padic primes".split()]


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
        for raw in ("1,x", "", ","):  # an empty list names no prime
            assert main([command, write_doc(GOOD), flag, raw]) == 2
            assert f"error: {flag}: expected comma-separated integers, got {raw!r}" in capsys.readouterr().err


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

    def test_cheap_paths_load_no_numpy(self, write_doc, tmp_path):
        # a fresh interpreter: no command loads numpy, the density constant's
        # included, yet importing the cli still registers every package module
        broken = tmp_path / "broken.json"
        broken.write_text('{"k": ')
        # the violated quotients' lcm is 4, so the diagnostic trial-divides it
        bad = {"k": 3, "conditions": [{"indices": [1, 2], "gcd": 1}, {"indices": [1, 2, 3], "gcd": 4}]}
        pairs = {"k": 5, "conditions": [{"indices": list(e), "gcd": 1} for e in combinations(range(1, 6), 2)]}
        script = """
import contextlib, io, sys
from gcdcensus import nymann_count
from gcdcensus.cli import main
from gcdcensus.primes import factorize
good, broken, bad, pairs = sys.argv[1:]
codes = [main(["check", good]), main(["witness", good]), main(["check", broken])]
codes.append(main(["count", good, "--limit", "1000000000000"]))  # refused before any sieving
try:
    main(["constant", good, "--cover", "1"])
except SystemExit as exc:
    codes.append(exc.code)
codes.append(main(["count", good, "--limit", "1000"]))  # the walk
codes.append(main(["check", bad]))
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["factors", good]))  # factors the targets, sums the local factors
print(factorize(6 * 1000000000039))  # trial division to 10^6 proves the cofactor prime
print(nymann_count(3, 10**6))  # the Mertens function
print(codes, sorted(m for m in sys.modules if m.startswith("gcdcensus.")))
main(["count", pairs, "--limit", "10"])  # the box scan
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["constant", good]))  # the exact head and the prime-zeta tail
    codes.append(main(["verify", good, "--limit", "100"]))
assert "numpy" not in sys.modules, codes
assert codes[-2:] == [0, 0], codes
"""
        docs = [write_doc(GOOD), str(broken), write_doc(bad, "bad.json"), write_doc(pairs, "pairs.json")]
        run = fresh_python(script, *docs)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            "admissible",
            "6 30 10",
            "x 1000",
            "count 145144",
            "density 0.000145144",
            "inadmissible: p=2, T={1,2}",
            "{2: 1, 3: 1, 1000000000039: 1}",
            "831907430687799769",
            f"[0, 0, 2, 3, 2, 0, 1, 0] {SUBMODULES}",
            "x 10",
            "count 2406",
            "density 0.02406",
        ]

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
        # 4249 digits, the Mersenne primes 2^9689-1 and 2^4423-1: the cofactor
        # left after trial division is above the 2048-bit cap, so it is refused
        # before Miller-Rabin, whose first round alone took about 7 s
        semiprime = (2**9689 - 1) * (2**4423 - 1)
        doc = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": str(semiprime)}]}
        start = time.perf_counter()
        assert main(["factors", write_doc(doc)]) == 3
        # trial division to 10^6 took 0.35-0.4 s (2-vCPU VM)
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert "14112-bit target leaves a 14112-bit cofactor, above the 2048-bit limit" in err

    def test_prime_targets_either_side_of_the_cofactor_cap(self, write_doc, capsys):
        # the primes nearest 2^2048: 2048 bits is tested and answered, 2049 refused
        below, above = 2**2048 - 1557, 2**2048 + 981
        doc = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": str(above)}]}
        start = time.perf_counter()
        assert main(["factors", write_doc(doc)]) == 3
        assert time.perf_counter() - start < 1
        assert "2049-bit target leaves a 2049-bit cofactor, above the 2048-bit limit" in capsys.readouterr().err
        doc = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": str(below)}]}
        assert main(["factors", write_doc(doc)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [f"p {below}", "g {1,2} 1"]

    def test_listed_primes_either_side_of_the_cap(self, write_doc, capsys):
        # a listed prime meets the cofactor cap before Miller-Rabin, which took
        # 3.2 s on 2^4423 - 1 (2-vCPU VM)
        for listed, bits in ((2**4423 - 1, 4423), (2**2048 + 981, 2049)):
            start = time.perf_counter()
            assert main(["factors", write_doc(PAIR2), "--primes", str(listed)]) == 3
            assert time.perf_counter() - start < 1
            assert f"a {bits}-bit prime is above the 2048-bit limit" in capsys.readouterr().err
        assert main(["factors", write_doc(PAIR2), "--primes", str(2**2048 - 1557)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [f"p {2**2048 - 1557}", "g {1,2} 0"]

    @pytest.mark.parametrize(
        "argv", [["constant", "--prime-bound", "1000"], ["count", "--limit", "100"], ["factors"]], ids=lambda a: a[0]
    )
    def test_each_target_prime_is_tested_once(self, write_doc, monkeypatch, capsys, argv):
        # trial division proves the primes of the targets 6 and 10, so nothing
        # runs Miller-Rabin on them; a prime target above (10^6 + 1)^2 is
        # tested once by factorize, and the valuations do not test it again
        from gcdcensus import padic, primes

        calls, is_prime = [], primes.is_prime

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(primes, "is_prime", counted)
        monkeypatch.setattr(padic, "is_prime", counted)
        assert main([argv[0], write_doc(GOOD), *argv[1:]]) == 0
        assert calls == []
        big = 1000002000007
        doc = write_doc({"k": 2, "conditions": [{"indices": [1, 2], "gcd": big}]}, "big.json")
        # constant takes the target prime's exact factor past its head, and count
        # factors nothing
        code, tested = {"constant": (0, [big]), "count": (0, []), "factors": (0, [big])}[argv[0]]
        assert main([argv[0], doc, *argv[1:]]) == code
        assert calls == tested

    def test_verify_tests_the_target_prime_once(self, write_doc, monkeypatch, capsys):
        # the constant factors the target, and the count, inside the box
        # here, reads its primes off its sieve to 3
        from gcdcensus import padic, primes

        calls, is_prime = [], primes.is_prime

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(primes, "is_prime", counted)
        monkeypatch.setattr(padic, "is_prime", counted)
        big = 1000002000007
        doc = write_doc({"k": 2, "conditions": [{"indices": [1, 2], "gcd": big}]})
        assert main(["verify", doc, "--limit", str(3 * big), "--prime-bound", "1000"]) == 0
        assert "count 7" in capsys.readouterr().out.splitlines()
        assert calls == [big]


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
        assert fields["prime_cutoff"] == "997"  # the head stops at 1000, whatever the bound

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
            "value 0.000143197326872",
            "lower 0.000143197326872",
            "upper 0.000143197326872",
            "prime_cutoff 997",
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
            # with no conditions the factor polynomial is 1, so the head may stop at 2
            ({"k": 2, "conditions": []}, 2, [2]),
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

    def test_cutoff_too_small_is_resource_exit(self, write_doc, capsys):
        # complete pairwise k=25: R = 2 max |c_j|^(1/j) is about 35, so a head to
        # 50 cannot bound the tail's series
        doc = {"k": 25, "conditions": [{"indices": list(t), "gcd": 1} for t in combinations(range(1, 26), 2)]}
        assert main(["constant", write_doc(doc), "--prime-bound", "50"]) == 3
        assert "below 2R = " in capsys.readouterr().err
        assert main(["constant", write_doc(doc), "--prime-bound", "1000"]) == 0

    @pytest.mark.parametrize("bound", ["1", "0", "-5"])
    def test_cutoff_below_two_is_validation_exit(self, write_doc, capsys, bound):
        path = write_doc(PAIR2)
        for cmd in (["constant", path], ["verify", path, "--limit", "10"]):
            assert main([*cmd, "--prime-bound", bound]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"prime cutoff must be >= 2, got {bound}" in captured.err

    def test_target_prime_above_the_head_enters_exactly(self, write_doc, capsys):
        # the target prime 101 lies past a head to 50: its exact factor
        # (1 - 1/101^2) / 101^2 replaces the generic 1 - 1/101^2, so the
        # constant is 6/pi^2 / 101^2
        doc = {"k": 2, "conditions": [{"indices": [1, 2], "gcd": 101}]}
        assert main(["constant", write_doc(doc), "--prime-bound", "50", "--trace", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["prime_cutoff"] == 47
        assert out["factor_trace"][-1]["p"] == 101
        assert out["value"] == pytest.approx(0.6079271018540267 / 101**2, rel=1e-15, abs=0)

    def test_over_state_cap_is_resource_exit(self, write_doc, capsys):
        # complete bipartite K_{24,24}: the subset sums pass their state cap
        pairs = [[i, j] for i in range(1, 25) for j in range(25, 49)]
        path = write_doc({"k": 48, "conditions": [{"indices": t, "gcd": 1} for t in pairs]})
        for cmd in (["constant", path], ["factors", path, "--primes", "2"]):
            start = time.perf_counter()
            assert main(cmd) == 3
            assert time.perf_counter() - start < 5  # 0.2-0.3 s on a 2-vCPU VM
            assert "65536-state cap" in capsys.readouterr().err


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

    def test_count_guard_exit(self, write_doc, capsys):
        assert main(["count", write_doc(PAIR2), "--limit", str(10**12)]) == 3
        assert "count's walk needs over" in capsys.readouterr().err

    def test_twin_free_refusal_keeps_its_step_count(self, write_doc, capsys):
        # README's system has no twin indices: the walk memoizes nothing and
        # charges each step as it did before it summed orbits of twins
        assert main(["count", write_doc(GOOD), "--limit", "3200000"]) == 3
        assert "count's walk needs over 3000251 steps, past its budget of 3000000" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_count_too_long_to_print_is_resource_exit(self, write_doc, capsys, fmt):
        # x**k with no conditions: no kernel runs, but the count has 6001 digits
        doc = {"k": 2, "conditions": []}
        assert main(["count", write_doc(doc), "--limit", str(10**3000), "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too long to print" in captured.err

    @pytest.mark.parametrize(
        "doc, argv",
        [
            (LONG_WITNESS, ["witness"]),
            (MERSENNE12, ["constant", "--trace"]),
            (MERSENNE12, ["constant", "--trace", "--format", "json"]),
            (MERSENNE12, ["factors"]),
            (MERSENNE12, ["factors", "--format", "json"]),
        ],
        ids=["witness", "constant-trace", "constant-trace-json", "factors", "factors-json"],
    )
    def test_result_too_long_to_print_is_resource_exit(self, write_doc, capsys, doc, argv):
        # the witness's first entry has 5001 digits, and the local factor at
        # 2^1279 - 1 on 12 indices a denominator of thousands; nothing is printed
        assert main([argv[0], write_doc(doc), *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the result is too long to print" in captured.err

    @pytest.mark.parametrize(
        "doc, count",
        [
            ({"k": 2, "conditions": []}, 10**800),  # x**k
            ({"k": 2, "conditions": [{"indices": [1, 2], "gcd": str(10**500)}]}, 0),  # the witness is above x
        ],
        ids=["no-conditions", "witness-above-x"],
    )
    def test_verify_past_the_float_range(self, write_doc, capsys, doc, count):
        # no kernel runs, the gap is 0 (the second constant underflows), and x * gap
        # overflows a float: the normalized errors read 0
        argv = ["verify", write_doc(doc), "--limit", str(10**400), "--prime-bound", "100", "--format", "json"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["count"], out["gap"], out["normalized_error"], out["sharper_normalized_error"]) == (count, 0, 0, 0)

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

    def test_verify_json_is_strict_at_x_one(self, write_doc, capsys):
        # at x = 1 both normalized errors are infinite, which JSON cannot hold
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        argv = ["verify", write_doc(PAIR2), "--limit", "1", "--prime-bound", "1000"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["normalized_error"] is None and doc["sharper_normalized_error"] is None
        assert doc["count"] == 1 and doc["gap"] > 0
        assert lines[5] == "normalized_error inf" and lines[7] == "sharper_normalized_error inf"

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

    def test_no_primes_available(self, write_doc, capsys):
        # all targets 1: a valid system with no target primes reports nothing
        assert main(["factors", write_doc(PAIR2)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["factors", write_doc(PAIR2), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_inadmissible_exit(self, write_doc):
        assert main(["factors", write_doc(BAD), "--primes", "2"]) == 1


class TestStdinAndThreads:
    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PAIR2)))
        assert main(["count", "-", "--limit", "10"]) == 0
        assert "count 63" in capsys.readouterr().out


class TestStartup:
    """What one launch runs: package modules execute on first use, and a
    command runs only those it needs."""

    HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "numpy")
    LAUNCH = """
import contextlib, io, json, sys
from gcdcensus.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        rc = main(sys.argv[1:])
    except SystemExit as exc:  # --help
        rc = exc.code
lazy = sorted(n for n, m in sys.modules.items() if type(m).__name__ == "_LazyModule")
print(json.dumps({"rc": rc, "out": out.getvalue(), "lazy": lazy, "loaded": sorted(sys.modules)}))
"""

    def _launch(self, *argv):
        run = fresh_python(self.LAUNCH, *argv)
        assert run.returncode == 0, run.stderr
        return json.loads(run.stdout)

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["check"], "admissible\n"),
            (["witness"], "6 30 10\n"),
            (["count", "--limit", "1000"], "x 1000\ncount 145144\ndensity 0.000145144\n"),
            (["--help"], None),
        ],
        ids=["check", "witness", "count", "help"],
    )
    def test_cheap_commands_run_no_density(self, write_doc, argv, out):
        if argv[0] != "--help":
            argv = [argv[0], write_doc(GOOD), *argv[1:]]
        state = self._launch(*argv)
        assert state["rc"] == 0
        if out is not None:
            assert state["out"] == out
        assert "gcdcensus.density" in state["lazy"]
        assert not set(self.HEAVY) & set(state["loaded"])
        assert set(SUBMODULES) <= set(state["loaded"])  # registered, run or not

    def test_constant_runs_density(self, write_doc):
        # that no command loads numpy is test_cheap_paths_load_no_numpy's check
        state = self._launch("constant", write_doc(GOOD), "--prime-bound", "1000")
        assert state["rc"] == 0 and state["out"].startswith("value ")
        assert "gcdcensus.density" not in state["lazy"]
        assert {"fractions", "decimal"} <= set(state["loaded"])

    def test_every_traced_function_resolves_after_importing_the_cli(self):
        # the benchmark's tracer imports gcdcensus.cli, then looks each of its
        # TARGETS up in sys.modules; a module missing there reads as absent, and
        # so does primes.prime_blocks, which the package no longer has
        script = """
import importlib.util, json, sys
import gcdcensus.cli
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
names = sorted(n for n in sys.modules if n.startswith("gcdcensus."))
absent = [n for n, m, f, *_ in tracer.TARGETS if not callable(getattr(sys.modules.get(f"gcdcensus.{m}"), f, None))]
print(json.dumps({"names": names, "absent": absent, "targets": len(tracer.TARGETS)}))
"""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        run = fresh_python(script, os.path.join(root, "perfbench", "tracer.py"))
        assert run.returncode == 0, run.stderr
        state = json.loads(run.stdout)
        assert state["names"] == SUBMODULES
        assert (state["absent"], state["targets"]) == (["primes.prime_blocks"], 9)

    def test_public_names_resolve(self):
        assert gcdcensus.__all__ == [
            "AdmissibilityReport", "Condition", "ConditionSet", "CountReport", "CutoffTooSmallError",
            "DensityResult", "FactorPolynomial", "InadmissibleError", "LocalView", "ResourceLimitError",
            "brute_force_find", "condition_set", "constant", "convergence_table", "count", "delta",
            "empirical_report", "enumerate_independent_subsets", "find_cover", "generic_factor_polynomial",
            "is_admissible", "is_cover", "is_independent", "isolated_indices", "local_factor", "local_view",
            "neighbors", "nymann_count", "relevant_primes", "rwise_constant", "toth_pairwise_constant",
            "valuations", "witness", "z_set",
        ]
        namespace: dict = {}
        exec("from gcdcensus import *", namespace)
        assert set(gcdcensus.__all__) <= set(namespace) and set(gcdcensus.__all__) <= set(dir(gcdcensus))
        assert namespace["constant"] is gcdcensus.density.constant
        assert namespace["ConditionSet"] is gcdcensus.model.ConditionSet
        with pytest.raises(AttributeError, match="no attribute 'absent'"):
            gcdcensus.absent
