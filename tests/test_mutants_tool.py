"""``tools/mutants.py --compare`` on a toy module: matching across moved lines, and removed kills.

Each test writes a module ``quiverdu/toy.py`` into a scratch checkout, once
as the parent and once as the change, enumerates the mutants of both with
the tool itself and compares invented statuses: the comparison reads the
statuses and the change's source only, so no test suite is run.  The
committed records are checked too: every ``MUTANTS_*.json`` still compares,
and every ``BENCH_*.json`` has the keys the records share.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants_tool", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

PARENT = '''
def toy(a, b):
    if a == 0:
        return b
    c = a < b
    d = b > 1
    return c and d
'''

# A docstring moves every line, and the two independent assignments swap.
MOVED = '''
def toy(a, b):
    """A docstring of three lines,
    so every site sits two lines lower.
    """
    if a == 0:
        return b
    d = b > 1
    c = a < b
    return c and d
'''

# The test ``b > 1`` and the ``and`` that read it are gone.
DELETED = '''
def toy(a, b):
    if a == 0:
        return b
    c = a < b
    return c
'''


# One of each arithmetic operator, and no other site.
ARITHMETIC = '''
def toy(a, b):
    return a * b + (a - b)
'''


# One of each augmented arithmetic assignment, and no other site.
AUGMENTED = '''
def toy(a, b):
    a += b
    b -= a
    a *= b
    return a
'''


def checkout(root: Path, source: str) -> Path:
    (root / "src" / "quiverdu").mkdir(parents=True)
    (root / "src" / "quiverdu" / "toy.py").write_text(source, encoding="utf-8")
    (root / "tests").mkdir()
    (root / "tests" / "test_toy.py").write_text("def test_toy_without_d():\n    pass\n", encoding="utf-8")
    return root


def run(root: Path, status) -> dict:
    """A label as ``run`` writes it, with the status ``status(mutant)`` for each mutant."""
    found = mutants.enumerate_mutants(root, ["toy:toy"])
    for m in found:
        m["status"] = status(m)
        del m["index"], m["module"], m["source"]
    return {"tests": [], "functions": ["toy:toy"], "baseline_s": 0.0, "mutants": found}


def killed(m):
    return "killed"


def test_arithmetic_operators_are_mutated(tmp_path):
    root = checkout(tmp_path, ARITHMETIC)
    found = mutants.enumerate_mutants(root, ["toy:toy"])
    assert [(m["operator"], m["original"], m["mutant"]) for m in found] == [
        ("arithmetic", "a * b + (a - b)", "a * b - (a - b)"),
        ("arithmetic", "a * b", "a + b"),
        ("arithmetic", "a - b", "a + b"),
    ]
    # Written back, each mutant computes another value than toy(3, 2) = 7.
    for m in found:
        namespace: dict = {}
        exec(mutants.mutated_source(m), namespace)
        assert namespace["toy"](3, 2) != 7, m["key"]


def test_augmented_assignments_are_mutated(tmp_path):
    root = checkout(tmp_path, AUGMENTED)
    found = mutants.enumerate_mutants(root, ["toy:toy"])
    assert [(m["operator"], m["original"], m["mutant"], m["line"]) for m in found] == [
        ("arithmetic", "a += b", "a -= b", 1),
        ("arithmetic", "b -= a", "b += a", 2),
        ("arithmetic", "a *= b", "a += b", 3),
    ]
    # Written back, each mutant computes another value than toy(3, 2) = -15.
    for m in found:
        namespace: dict = {}
        exec(mutants.mutated_source(m), namespace)
        assert namespace["toy"](3, 2) != -15, m["key"]


# A module-level table of lambdas, with one comparison and no other site.
TABLE = '''
LIMIT = 9
TABLE = {"small": lambda a: a < LIMIT}
'''


def test_a_module_level_table_is_mutated_and_can_be_removed(tmp_path):
    root = checkout(tmp_path / "parent", TABLE)
    found = mutants.enumerate_mutants(root, ["toy:TABLE"])
    assert [(m["operator"], m["original"], m["mutant"], m["line"]) for m in found] == [
        ("comparison", "a < LIMIT", "a <= LIMIT", 0)]
    namespace: dict = {}
    exec(mutants.mutated_source(found[0]), namespace)
    assert namespace["TABLE"]["small"](9) is True
    other = checkout(tmp_path / "change", "LIMIT = 9\n")
    assert not mutants.gone(root, found[0]) and mutants.gone(other, found[0])


# A table row whose test is a bare call, and a lambda that returns no call.
CALLED = '''
TABLE = {"odd": lambda a: a.bit_count(), "small": lambda a: -a}
'''


def test_a_lambda_that_returns_a_call_is_negated(tmp_path):
    root = checkout(tmp_path, CALLED)
    found = mutants.enumerate_mutants(root, ["toy:TABLE"])
    assert [(m["operator"], m["original"], m["mutant"]) for m in found] == [
        ("negate call", "lambda a: a.bit_count()", "lambda a: not a.bit_count()")]
    namespace: dict = {}
    exec(mutants.mutated_source(found[0]), namespace)
    assert namespace["TABLE"]["odd"](7) is False and namespace["TABLE"]["small"](3) == -3


@pytest.mark.parametrize("row", ["cli:_BETA_NONZERO", "cli:_GAMMA_ZERO"])
def test_each_requirement_that_is_a_bare_call_has_a_mutant_the_refusal_tests_kill(row, tmp_path):
    # The section table's requirements beta_i != 0 and gamma = 0 are bare
    # calls; negated, each must fail test_cli.py's refusal tests, run as
    # the tool runs them on a copy of the repository.
    root = TOOL.parent.parent
    (mutant,) = mutants.enumerate_mutants(root, [row])
    assert mutant["operator"] == "negate call"
    work = mutants.workspace(root, tmp_path)
    mutants.module_file(work, "cli").write_text(mutants.mutated_source(mutant), encoding="utf-8")
    assert mutants.run_tests(work, ["tests/test_cli.py", "-k", "refus"], timeout=300)[0] == "killed"


def test_a_run_records_each_mutants_seconds(tmp_path, monkeypatch):
    # Each mutant that runs keeps the seconds its test run took, rounded as
    # baseline_s is; an equivalent one is not run and has none.  The test
    # runs are stubbed, so no suite runs.
    root = checkout(tmp_path / "repo", PARENT)
    (root / "pyproject.toml").write_text("", encoding="utf-8")
    found = mutants.enumerate_mutants(root, ["toy:toy"])
    allowlist = tmp_path / "equivalent_mutants.json"
    allowlist.write_text(json.dumps([{**{field: found[0][field] for field in mutants.IDENTITY[:4]},
                                      "ordinal": 0, "reason": "a toy entry"}]), encoding="utf-8")
    monkeypatch.setattr(mutants, "ALLOWLIST", allowlist)
    runs = iter([("survived", 2.34)] + [("killed", 0.25 + i) for i in range(len(found))])
    timeouts = []

    def run_tests(work, tests, timeout):
        timeouts.append(timeout)
        return next(runs)

    monkeypatch.setattr(mutants, "run_tests", run_tests)
    args = argparse.Namespace(repo=str(root), functions=["toy:toy"], tests=[], workdir=str(tmp_path))
    record = mutants.run(args)
    assert record["baseline_s"] == 2.3
    assert record["mutants"][0]["status"] == "equivalent" and "seconds" not in record["mutants"][0]
    assert [m["seconds"] for m in record["mutants"][1:]] == [round(0.25 + i, 1) for i in range(len(found) - 1)]
    assert timeouts == [3600] + [3 * 2.34 + 10] * (len(found) - 1)


def test_options_after_a_double_dash_reach_pytest(tmp_path, monkeypatch):
    # --tests takes paths; a pytest option such as -k goes after --, and
    # every test run, the unmutated one included, is given it.
    root = checkout(tmp_path / "repo", PARENT)
    (root / "pyproject.toml").write_text("", encoding="utf-8")
    selections = []

    def run_tests(work, tests, timeout):
        selections.append(tests)
        return ("killed" if len(selections) > 1 else "survived"), 0.0

    monkeypatch.setattr(mutants, "run_tests", run_tests)
    out = tmp_path / "out.json"
    assert mutants.main(["toy:toy", "--tests", "tests/test_toy.py", "--out", str(out), "--repo", str(root),
                         "--workdir", str(tmp_path), "--", "-k", "without_d"]) == 0
    selection = ["tests/test_toy.py", "-k", "without_d"]
    assert len(selections) > 1 and all(tests == selection for tests in selections)
    assert json.loads(out.read_text(encoding="utf-8"))["change"]["tests"] == selection


def test_sigterm_removes_the_copy_and_kills_its_pytest(tmp_path):
    # The tiny repository's one test writes its pid and sleeps.  Once the
    # copy exists and that test runs, SIGTERM must end the tool within 30 s,
    # with the copy removed and the pytest child gone.
    root = checkout(tmp_path / "repo", PARENT)
    (root / "pyproject.toml").write_text("", encoding="utf-8")
    pid_file = tmp_path / "pytest.pid"
    (root / "tests" / "test_toy.py").write_text(
        "import os\nimport pathlib\nimport time\n\n\ndef test_sleeps():\n"
        f"    pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\n"
        "    time.sleep(120)\n", encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    tool = subprocess.Popen([sys.executable, str(TOOL), "toy:toy", "--tests", "tests/test_toy.py",
                             "--out", str(tmp_path / "out.json"), "--repo", str(root), "--workdir", str(work)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not (any(work.glob("mutants-*")) and pid_file.exists() and pid_file.read_text()):
            assert tool.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        child = int(pid_file.read_text())
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) == 128 + signal.SIGTERM
        assert not any(work.iterdir())
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
        if child is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)


def test_a_run_writes_every_mutant_from_the_source_it_enumerated(tmp_path, monkeypatch):
    # Both live modules are edited once the run has begun (its test runs are
    # stubbed); every mutant is still written from the enumerated sources.
    root = checkout(tmp_path / "repo", PARENT)
    (root / "pyproject.toml").write_text("", encoding="utf-8")
    (root / "src" / "quiverdu" / "other.py").write_text(ARITHMETIC, encoding="utf-8")
    names = ["toy:toy", "other:toy"]
    expected = mutants.enumerate_mutants(root, names)
    written = []

    def run_tests(work, tests, timeout):
        if not written:
            mutants.module_file(root, "toy").write_text(DELETED, encoding="utf-8")
            mutants.module_file(root, "other").write_text(AUGMENTED, encoding="utf-8")
        written.append({module: mutants.module_file(work, module).read_text(encoding="utf-8")
                        for module in ("toy", "other")})
        return ("killed" if len(written) > 1 else "survived"), 0.0

    monkeypatch.setattr(mutants, "run_tests", run_tests)
    mutants.run(argparse.Namespace(repo=str(root), functions=names, tests=[], workdir=str(tmp_path)))
    unmutated = {module: ast.unparse(ast.parse(source))
                 for module, source in (("toy", PARENT), ("other", ARITHMETIC))}
    assert written[0] == unmutated
    assert written[1:] == [{**unmutated, m["module"]: mutants.mutated_source(m)} for m in expected]


def test_moved_lines_and_swapped_statements_keep_every_match(tmp_path, capsys):
    parent = run(checkout(tmp_path / "parent", PARENT), killed)
    root = checkout(tmp_path / "change", MOVED)
    change = run(root, killed)
    assert len(parent["mutants"]) == len(change["mutants"]) >= 6
    # The line keys differ everywhere, yet every mutant is matched.
    assert not {m["key"] for m in parent["mutants"]} & {m["key"] for m in change["mutants"]}
    assert mutants.compare({"parent": parent, "change": change}, "parent", "change", root) == 0
    assert "killed by parent only" not in capsys.readouterr().out


def test_an_allowlisted_mutant_on_a_moved_line_reads_equivalent(tmp_path):
    # The entry is made from the parent's mutant; in the change its line
    # key differs, yet it is the one mutant that reads equivalent.
    (site,) = [m for m in mutants.enumerate_mutants(checkout(tmp_path / "parent", PARENT), ["toy:toy"])
               if m["original"] == "a < b" and m["operator"] == "comparison"]
    entry = {"function": site["function"], "operator": site["operator"], "original": site["original"],
             "mutant": site["mutant"], "ordinal": 0, "reason": "a toy entry"}
    change = mutants.enumerate_mutants(checkout(tmp_path / "change", MOVED), ["toy:toy"])
    mutants.mark_equivalent(change, [entry])
    (marked,) = [m for m in change if m.get("status") == "equivalent"]
    assert (marked["original"], marked["mutant"]) == ("a < b", "a <= b")
    assert marked["key"] != site["key"]


def test_the_allowlist_names_mutants_that_exist():
    # Every entry names one mutant of the current source by its identity.
    entries = json.loads(mutants.ALLOWLIST.read_text(encoding="utf-8"))
    root = TOOL.parent.parent
    for function in {entry["function"] for entry in entries}:
        found = mutants.enumerate_mutants(root, [function])
        mutants.mark_equivalent(found, entries)
        marked = {identity for identity, m in mutants.identities(found).items()
                  if m.get("status") == "equivalent"}
        named = {tuple(entry[field] for field in mutants.IDENTITY) for entry in entries
                 if entry["function"] == function}
        assert marked == named, function


def test_a_kill_lost_on_a_site_that_still_exists_exits_1(tmp_path, capsys):
    parent = run(checkout(tmp_path / "parent", PARENT), killed)
    root = checkout(tmp_path / "change", MOVED)
    change = run(root, lambda m: "survived" if m["original"] == "a < b" else "killed")
    assert mutants.compare({"parent": parent, "change": change}, "parent", "change", root) == 1
    assert "killed by parent only: toy:toy +3 | a < b -> a <= b" in capsys.readouterr().out


def test_a_removed_kill_exits_1_unless_listed_with_its_covering_test(tmp_path, capsys):
    parent = run(checkout(tmp_path / "parent", PARENT), killed)
    root = checkout(tmp_path / "change", DELETED)
    change = run(root, killed)
    results = {"parent": parent, "change": change}
    gone = [m["key"] for m in parent["mutants"] if m["original"] in ("b > 1", "c and d")]
    assert len(gone) == 3  # b > 1 swapped and raised, c and d swapped
    assert mutants.compare(results, "parent", "change", root) == 1
    out = capsys.readouterr().out
    assert all(f"removed, not listed: {key}" in out for key in gone)
    assert "killed by parent only" not in out
    # Listed with a test that is not in the checkout: still 1.
    results["removed"] = [{"key": key, "test": "tests/test_toy.py::test_missing"} for key in gone]
    assert mutants.compare(results, "parent", "change", root) == 1
    capsys.readouterr()
    # Listed with the test that covers it: 0.
    results["removed"] = [{"key": key, "test": "tests/test_toy.py::test_toy_without_d"} for key in gone]
    assert mutants.compare(results, "parent", "change", root) == 0
    out = capsys.readouterr().out
    assert all(f"removed, covered by tests/test_toy.py::test_toy_without_d: {key}" in out for key in gone)


@pytest.mark.parametrize("deleted_function", [True, False])
def test_a_function_missing_from_the_change_reads_as_removed(tmp_path, deleted_function):
    parent = run(checkout(tmp_path / "parent", PARENT), killed)
    root = checkout(tmp_path / "change", "def other():\n    return 1\n" if deleted_function else PARENT)
    change = {"tests": [], "functions": [], "baseline_s": 0.0, "mutants": []}
    # The function gone: every kill is removed.  Present but not run: every kill is lost.
    assert all(mutants.gone(root, m) == deleted_function for m in parent["mutants"])
    assert mutants.compare({"parent": parent, "change": change}, "parent", "change", root) == 1


# Committed records whose compare exits 1, each for a reason known when it was recorded.
KNOWN_EXIT_1 = {
    "MUTANTS_35.json": ("removed, not listed: structure:noetherian_chain_check +47",
                        "the kill on a line that change deleted was recorded before --compare "
                        "read a removed list, and the record has none"),
}


@pytest.mark.parametrize("record", sorted(path.name for path in TOOL.parent.parent.glob("MUTANTS_*.json")))
def test_every_committed_mutation_record_still_compares(record, capsys):
    # A covering test named in a record's removed list must still exist, so
    # renaming it fails here, at the change that renames it.
    root = TOOL.parent.parent
    code = mutants.main(["--compare", "parent", "change", "--out", str(root / record), "--repo", str(root)])
    out = capsys.readouterr().out
    if record in KNOWN_EXIT_1:
        line, _reason = KNOWN_EXIT_1[record]
        assert code == 1 and line in out, out
        assert "killed by parent only" not in out and out.count("not listed") == 1, out
    else:
        assert code == 0, out


def test_every_committed_benchmark_record_has_the_shared_keys():
    # Each BENCH_*.json names the two trees it compares, the command it ran,
    # the host and the paired runs, so every record can be read like the others.
    records = sorted(TOOL.parent.parent.glob("BENCH_*.json"))
    keys = {"change", "parent", "command", "machine", "pairs"}
    missing = {path.name: sorted(keys - set(json.loads(path.read_text(encoding="utf-8"))))
               for path in records}
    assert records and not any(missing.values()), missing


# The first of two ``a > 1`` sites is deleted, so the second takes its ordinal.
TWICE = '''
def toy(a, b):
    c = a > 1
    return b * (a > 1)
'''

ONCE = '''
def toy(a, b):
    return b * (a > 1)
'''


def test_a_site_matched_by_hand_is_compared_with_the_site_it_names(tmp_path, capsys):
    # The parent's tests kill only the second site's comparison mutant; by
    # ordinal it has no match in the change, whose one site takes ordinal 0.
    second = lambda m: m["line"] == 2 and m["operator"] == "comparison"
    parent = run(checkout(tmp_path / "parent", TWICE), lambda m: "killed" if second(m) else "survived")
    root = checkout(tmp_path / "change", ONCE)
    results = {"parent": parent, "change": run(root, killed)}
    [key] = [m["key"] for m in parent["mutants"] if second(m)]
    [to] = [m["key"] for m in results["change"]["mutants"] if m["operator"] == "comparison"]
    assert mutants.compare(results, "parent", "change", root) == 1
    assert f"killed by parent only: {key}" in capsys.readouterr().out
    results["matched"] = [{"from": key, "to": to, "reason": "c = a > 1 was deleted"}]
    assert mutants.compare(results, "parent", "change", root) == 0
    assert f"matched by hand to {to}: {key}" in capsys.readouterr().out
    # A site matched by hand that the change no longer kills is lost.
    for m in results["change"]["mutants"]:
        m["status"] = "survived" if m["key"] == to else m["status"]
    assert mutants.compare(results, "parent", "change", root) == 1
    assert f"killed by parent only: {key}" in capsys.readouterr().out
