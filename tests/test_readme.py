"""README.md's examples run as written: every command line and the quickstart."""

import json
import re
import shlex
from pathlib import Path

import pytest

from gcdcensus.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(section: str, lang: str) -> list[str]:
    """The fenced `lang` blocks under the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```", body, flags=re.M | re.S)


def _run(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags this way
        return exc.code


@pytest.fixture
def commands(tmp_path) -> list[list[str]]:
    """Each `gcdcensus ...` line of the command-line section, on README's system."""
    (doc,) = _blocks("Command line", "json")
    path = tmp_path / "system.json"
    path.write_text(doc)
    (sh,) = _blocks("Command line", "sh")
    lines = [shlex.split(line, comments=True) for line in sh.splitlines()]
    lines = [argv for argv in lines if argv]
    assert lines and all(argv[0] == "gcdcensus" for argv in lines)
    return [[str(path) if a == "system.json" else a for a in argv[1:]] for argv in lines]


def test_command_lines_run(commands, capsys):
    for argv in commands:
        assert _run(argv) == 0, shlex.join(argv)
        out = capsys.readouterr().out
        if argv[0] == "check":
            assert out.strip() == "admissible"
        elif argv[0] == "witness":
            assert out.strip() == "6 30 10"
        else:  # a reporting command
            assert _run([*argv, "--format", "json"]) == 0, shlex.join(argv)
            json.loads(capsys.readouterr().out)


def test_library_quickstart():
    (code,) = _blocks("Library quickstart", "python")
    namespace: dict = {}
    exec(code, namespace)
    assert namespace["witness"](namespace["cs"]) == (6, 30, 10)
    res = namespace["res"]
    assert res.lower <= res.value <= res.upper


def test_printed_constant(commands, capsys):
    # the example output under the command lines is what `constant` prints
    (printed,) = _blocks("Command line", "text")
    (argv,) = [a for a in commands if a[0] == "constant"]
    assert _run([a for a in argv if a != "--trace"]) == 0
    assert capsys.readouterr().out == printed
