"""Differential tests of the command-line parser that ``main`` shares.

``cli.main`` builds its argparse parser on the first call and keeps it for
every later call in the process.  The reference is a parser built afresh
for each argv by ``cli._build_parser``: on valid argv both must give equal
Namespaces, and on bad argv the same ``SystemExit`` code and the same
stderr.  The argv reaches ``main``'s parser through the real ``main``, with
each command handler replaced by a recorder of the Namespace it gets.
``main`` sends argv that starts with a command name straight to that
command's subparser and any other argv to the top-level parser, so the
corpora hold both kinds, and each bad argv also reaches ``main`` as the
console script passes it, through ``sys.argv``.  Calls in a row must
not leak state into each other, the parser is built at most once however
often ``main`` runs, and importing ``quiverdu.cli`` builds none.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverdu
from quiverdu import cli

CFG = "cfg.json"
VERIFY_TARGETS = ["gwa", "superpotential", "nakayama", "pwd", "noetherian", "properties", "skewgroup"]

VALID = [
    ["nf", CFG, "1 * d0.u0"],
    ["nf", CFG, "2/3 * u1.d1 + 1 @0", "--json", "--seed", "5"],
    ["nf", "--json", CFG, "1 * d0"],
    ["basis", CFG, "--degree", "0"],
    ["basis", CFG, "--degree", "3", "--preset", "preprojective", "--json", "--seed", "2"],
    ["basis", CFG, "--degree=4", "--preset=qdu"],
    ["confluence", CFG],
    ["confluence", CFG, "--json", "--seed=-3"],
    ["hilbert", CFG],
    ["hilbert", CFG, "--max-degree", "4", "--preset", "preprojective", "--check", "--json", "--seed", "1"],
    ["hilbert", CFG, "--max-degree", "0", "--check"],
    ["iso", CFG, "--other", "other.json"],
    ["iso", "--other", "other.json", CFG, "--json"],
    *[["verify", what, CFG] for what in VERIFY_TARGETS],
    ["verify", "pwd", CFG, "--trials", "3", "--max-degree", "2", "--seed", "4", "--json"],
    ["verify", "skewgroup", CFG, "--n", "3", "--max-degree", "2"],
    ["verify", "--trials", "1", "gwa", CFG],
    ["verify", "noetherian", CFG, "--max-degree", "0"],
    ["report", CFG],
    ["report", CFG, "--trials", "5", "--json", "--seed", "9"],
    ["hilbert", CFG, "--max-deg", "2"],
    ["basis", CFG, "--deg=3"],
    ["nf", CFG, "--", "-1 * d0"],
    ["confluence", "--", CFG],
]

# Each exits through argparse: with code 2 and a usage error on stderr, or
# with code 0 and the version or help text on stdout.
EXITS = [
    ["basis", CFG, "--degree", "-1"],
    ["basis", CFG, "--degree", "x"],
    ["basis", CFG],
    ["basis", CFG, "--degree", "2", "--preset", "bogus"],
    ["hilbert", CFG, "--max-degree", "-1"],
    ["verify", "pwd", CFG, "--trials", "0"],
    ["verify", "pwd", CFG, "--max-degree", "-2"],
    ["verify", "skewgroup", CFG, "--n", "1"],
    ["verify", "bogus", CFG],
    ["verify", "gwa"],
    ["report", CFG, "--trials", "0"],
    ["report"],
    ["nf", CFG],
    ["iso", CFG],
    ["bogus", CFG],
    [],
    ["nf", CFG, "1 * d0", "--unknown"],
    ["--version"],
    ["--help"],
    ["verify", "--help"],
    ["nf", "-h"],
    ["verify", "skewgroup", "--help"],
    ["confluence", CFG, "--bogus"],
    ["confluence", CFG, "extra", "--json", "more"],
    ["nf", CFG, "1 * d0", "--version"],
    ["--json", "nf", CFG, "1 * d0"],
    ["ver", "pwd", CFG],
]


@pytest.fixture
def recorded(monkeypatch):
    """Replace every command handler by one that records its Namespace."""
    seen = []

    def record(args):
        seen.append(args)
        return "pass", {}

    for name in cli._DISPATCH:
        monkeypatch.setitem(cli._DISPATCH, name, record)
    return seen


def fresh_exit(argv, capsys):
    return exit_of(lambda: cli._build_parser().parse_args(argv), capsys)


def main_exit(argv, capsys):
    return exit_of(lambda: cli.main(argv), capsys)


def exit_of(call, capsys):
    """(exit code, stdout, stderr) of a call that must raise SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_valid_argv_give_equal_namespaces(recorded, capsys):
    # Twice through the corpus, so every argv also follows the others on
    # one shared parser.
    for _ in range(2):
        for argv in VALID:
            expected = cli._build_parser().parse_args(argv)
            assert cli.main(argv) == cli.EXIT_PASS
            assert recorded.pop() == expected, argv
    capsys.readouterr()


def test_defaults_are_the_documented_ones(recorded, capsys):
    for argv, defaults in [
        (["nf", CFG, "1 * d0"], {"json": False, "seed": 0}),
        (["basis", CFG, "--degree", "1"], {"preset": "qdu", "seed": 0}),
        (["hilbert", CFG], {"max_degree": 8, "preset": "qdu", "check": False}),
        (["verify", "pwd", CFG], {"trials": 200, "max_degree": None, "n": None}),
        (["report", CFG], {"trials": 100, "seed": 0, "json": False}),
    ]:
        cli.main(argv)
        args = recorded.pop()
        assert {k: getattr(args, k) for k in defaults} == defaults, argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", EXITS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_exits_match_a_fresh_parser(argv, recorded, monkeypatch, capsys):
    expected = fresh_exit(argv, capsys)
    assert expected[0] in (0, 2)
    assert main_exit(argv, capsys) == expected
    # And again, now that the shared parser has already failed once.
    assert main_exit(argv, capsys) == expected
    # And as the console script calls it, with argv None.
    monkeypatch.setattr(sys, "argv", ["quiverdu", *argv])
    assert main_exit(None, capsys) == expected
    assert not recorded


def test_argv_goes_to_the_top_level_parser_only_without_a_command(recorded, monkeypatch, capsys):
    # Argv that starts with a command name goes straight to its subparser;
    # everything else still goes through the top-level parser.
    cli.main(["confluence", CFG])
    top_level = []
    parse_args = cli._PARSER.parse_args
    monkeypatch.setattr(cli._PARSER, "parse_args", lambda argv: top_level.append(argv) or parse_args(argv))
    for argv in VALID:
        cli.main(argv)
    assert not top_level and len(recorded) == len(VALID) + 1
    for argv in EXITS:
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert top_level == [argv for argv in EXITS if not argv or argv[0] not in cli._DISPATCH]
    capsys.readouterr()


def test_no_state_leaks_between_calls(recorded, capsys):
    cli.main(["verify", "pwd", CFG, "--max-degree", "3", "--trials", "7"])
    assert recorded.pop().max_degree == 3
    cli.main(["verify", "pwd", CFG])
    args = recorded.pop()
    assert args.max_degree is None and args.trials == 200
    cli.main(["verify", "skewgroup", CFG, "--n", "4"])
    assert recorded.pop().n == 4
    cli.main(["verify", "skewgroup", CFG])
    assert recorded.pop().n is None
    cli.main(["report", CFG])
    assert not hasattr(recorded.pop(), "what")
    capsys.readouterr()


def test_a_valid_call_passes_after_an_argparse_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n": 3, "alpha": ["2", "3", "5"], "beta": ["7", "11", "13"],
                               "gamma": ["1", "0", "4"]}), encoding="utf-8")
    assert main_exit(["basis", str(cfg), "--degree", "-1"], capsys)[0] == 2
    assert main_exit(["bogus"], capsys)[0] == 2
    assert cli.main(["nf", str(cfg), "1 * d0.d2.u2", "--json"]) == cli.EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["findings"]["normal_form"] == "1 * d0 + 7 * u1.d1.d0 + 2 * d0.u0.d0"


def test_argv_none_reads_sys_argv_at_each_call(recorded, monkeypatch, capsys):
    cli.main(["confluence", CFG])
    recorded.clear()
    monkeypatch.setattr(sys, "argv", ["quiverdu", "verify", "pwd", CFG, "--max-degree", "2"])
    cli.main()
    monkeypatch.setattr(sys, "argv", ["quiverdu", "hilbert", CFG, "--check"])
    cli.main()
    first, second = recorded
    assert (first.command, first.what, first.max_degree) == ("verify", "pwd", 2)
    assert (second.command, second.check) == ("hilbert", True)
    capsys.readouterr()


def test_parser_is_built_at_most_once(recorded, monkeypatch, capsys):
    builds = []
    build = cli._build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None)
    for argv in VALID * 3:
        cli.main(argv)
    for argv in EXITS[:5]:
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert len(builds) == 1
    capsys.readouterr()


def test_import_builds_no_parser():
    # A fresh interpreter, so the import really runs; a profile hook counts
    # calls of cli._build_parser from the first line of the import on.
    probe = (
        "import sys\n"
        "calls = []\n"
        "def hook(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == '_build_parser':\n"
        "        calls.append(frame.f_code.co_filename)\n"
        "sys.setprofile(hook)\n"
        "import quiverdu.cli as cli\n"
        "sys.setprofile(None)\n"
        "print(len(calls), cli._PARSER is None)\n"
    )
    src = str(Path(quiverdu.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.split() == ["0", "True"]
