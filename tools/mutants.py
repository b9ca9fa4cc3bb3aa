"""Mutation testing of named functions, with the standard library only.

    python3 tools/mutants.py rewrite:_times_word linalg:RowSpace.add \\
        --tests tests/test_rewrite.py tests/test_linalg.py \\
        --out MUTANTS_32.json --label change [--repo DIR]

    python3 tools/mutants.py cli:_BETA_NONZERO --tests tests/test_cli.py \\
        --out refusals.json -- -k refus

    python3 tools/mutants.py --compare parent change --out MUTANTS_32.json [--repo DIR]

Everything after ``--`` is passed to pytest after the ``--tests`` selection.
A function is named ``module:qualname`` (``quiverdu.`` may be left off);
a module-level assignment is named the same way, so the lambdas of a
table are mutated too.
Each mutant changes one site of one function, default arguments
included: a comparison swapped (``==``/``!=``, ``<``/``<=``, ``>``/``>=``,
``is``/``is not``, ``in``/``not in``), ``and``/``or`` swapped, a ``not``
dropped, ``all``/``any`` swapped, an arithmetic operator changed (``+``/``-``
swapped, ``*`` made ``+``; in an augmented assignment ``+=``/``-=`` swapped,
``*=`` made ``+=``), an int constant 0..4 raised by one, or a call negated
where it is the body of a lambda (``lambda p: p.f()`` made
``lambda p: not p.f()``).
Each module is read once, when its mutants are enumerated; a mutant is
written back from that text's mutated syntax tree into a copy of the
repository's ``src/`` and ``tests/``, so an edit to ``--repo`` during a run
changes no mutant, and the selected tests run there
with ``pytest -x`` and a fixed Hypothesis seed, one mutant after another.
While the copy exists, SIGTERM ends the run as an exit does: the copy is
removed and a running pytest is killed.
A mutant is ``killed`` when they fail, ``timeout`` when they overrun three
times the unmutated run, and ``survived`` when they pass; its record
keeps the run's ``seconds``, rounded as ``baseline_s`` is.  A mutant in the
allowlist (``tools/equivalent_mutants.json``: its identity, the fields of
``IDENTITY`` that ``--compare`` below matches by, and a one-line ``reason``)
is an equivalent mutant: it is not run and reads ``equivalent``, wherever
its line has moved.

Results go under ``--label`` in the output file, so two test suites, or
a parent and a change, can be run over the same sites side by side.
``--compare A B`` matches A's mutants with B's by function, operator,
original and mutant text, and the ordinal of that tuple in source order,
so a mutant keeps its identity when lines move.  It lists every mutant
that A's tests kill and B's do not, and exits 1 if there is one.  A killed
mutant of A with no match in B is ``removed`` when its function, or its
original text in that function, no longer exists in ``--repo``'s source;
it still exits 1 unless the file's ``removed`` list names its key with
the ``test`` (``path::name``, present in ``--repo``) that now covers the
behaviour.  A site can keep its meaning while its text changes, or
while deleting an earlier site with the same tuple shifts its ordinal;
the file's ``matched`` list may then map a key of A to the key of B's
mutant at that site (``from``, ``to``, ``reason``), and that pair is
compared in place of the ordinal match.  A run costs one test run per
mutant, so it is not a CI step.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ALLOWLIST = Path(__file__).with_name("equivalent_mutants.json")
# The fields of a mutant's identity, in the order of ``identities``' tuples.
IDENTITY = ("function", "operator", "original", "mutant", "ordinal")
KILLED = ("killed", "timeout")
SWAPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add}


def variants(node: ast.AST) -> list:
    """The (operator, mutated copy of node) of each mutant at this node."""
    out = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            new = copy.deepcopy(node)
            new.ops[i] = SWAPS[type(op)]()
            out.append(("comparison", new))
    elif isinstance(node, ast.BoolOp):
        out.append(("and/or", ast.BoolOp(ast.Or() if isinstance(node.op, ast.And) else ast.And(),
                                         copy.deepcopy(node.values))))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        out.append(("drop not", copy.deepcopy(node.operand)))
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("all", "any"):
        new = copy.deepcopy(node)
        new.func.id = "any" if node.func.id == "all" else "all"
        out.append(("all/any", new))
    elif isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
        out.append(("arithmetic", ast.BinOp(copy.deepcopy(node.left), ARITHMETIC[type(node.op)](),
                                            copy.deepcopy(node.right))))
    elif isinstance(node, ast.AugAssign) and type(node.op) in ARITHMETIC:
        out.append(("arithmetic", ast.AugAssign(copy.deepcopy(node.target), ARITHMETIC[type(node.op)](),
                                                copy.deepcopy(node.value))))
    elif isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= 4:
        out.append(("constant + 1", ast.Constant(node.value + 1)))
    elif isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
        out.append(("negate call", ast.Lambda(copy.deepcopy(node.args),
                                              ast.UnaryOp(ast.Not(), copy.deepcopy(node.body)))))
    return out


class Mutator(ast.NodeTransformer):
    """Visits a function in preorder, numbering every mutant; replaces the ``target``-th.

    ``sites`` holds each mutant's (operator, node, mutated node, parent).
    """

    def __init__(self, target: int = -1):
        self.target, self.sites, self.parents = target, [], [None]

    def visit(self, node):
        for operator, new in variants(node):
            self.sites.append((operator, node, new, self.parents[-1]))
            if len(self.sites) - 1 == self.target:
                return ast.copy_location(new, node)
        self.parents.append(node)
        try:
            return self.generic_visit(node)
        finally:
            self.parents.pop()


def describe(node, new, parent) -> tuple[str, str]:
    """Source text of a site before and after; a constant is shown in its parent expression."""
    if isinstance(node, ast.Constant) and parent is not None:
        original = ast.unparse(parent)
        node.value += 1
        mutant = ast.unparse(parent)
        node.value -= 1
        return original, mutant
    return ast.unparse(node), ast.unparse(new)


def module_file(root: Path, module: str) -> Path:
    return root / "src" / "quiverdu" / (module.removeprefix("quiverdu.").replace(".", "/") + ".py")


def lookup(tree: ast.Module, qualname: str) -> ast.AST | None:
    """The function, class or assignment (a table of lambdas, say) that qualname names, or None."""
    scope = tree
    for name in qualname.split("."):
        scope = next((node for node in ast.iter_child_nodes(scope)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
                      or isinstance(node, ast.Assign)
                      and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)), None)
        if scope is None:
            return None
    return scope


def find_function(tree: ast.Module, qualname: str) -> ast.AST:
    scope = lookup(tree, qualname)
    if scope is None:
        raise SystemExit(f"no function {qualname}")
    return scope


def enumerate_mutants(root: Path, names: list[str]) -> list[dict]:
    """Every mutant of every named function, with its key and a way to write it.

    Each module is read once, here, and every mutant keeps that text as its
    ``source``: it is written from it, whatever ``root`` holds by then.
    """
    mutants, sources = [], {}
    for name in names:
        module, qualname = name.split(":")
        module = module.removeprefix("quiverdu.")
        if module not in sources:
            sources[module] = module_file(root, module).read_text(encoding="utf-8")
        tree = ast.parse(sources[module])
        func = find_function(tree, qualname)
        mutator = Mutator()
        mutator.visit(copy.deepcopy(func))
        seen: dict = {}
        for index, (operator, node, new, parent) in enumerate(mutator.sites):
            (original, mutant), line = describe(node, new, parent), node.lineno - func.lineno
            key = f"{module}:{qualname} +{line} | {original} -> {mutant}"
            seen[key] = seen.get(key, -1) + 1
            mutants.append({"key": key + (f" #{seen[key]}" if seen[key] else ""),
                            "function": f"{module}:{qualname}", "operator": operator,
                            "line": line, "original": original,
                            "mutant": mutant, "index": index, "module": module,
                            "source": sources[module]})
    return mutants


def mutated_source(mutant: dict) -> str:
    tree = ast.parse(mutant["source"])
    qualname = mutant["function"].split(":")[1]
    Mutator(mutant["index"]).visit(find_function(tree, qualname))
    return ast.unparse(ast.fix_missing_locations(tree))


def run_tests(work: Path, tests: list[str], timeout: float) -> tuple[str, float]:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--hypothesis-seed=0", *tests], cwd=work, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout)
        status = "survived" if done.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        status = "timeout"
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    return status, time.perf_counter() - start


def workspace(root: Path, base: Path) -> Path:
    work = base / "work"
    for part in ("src", "tests"):
        shutil.copytree(root / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "pyproject.toml", work)
    return work


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def run(args) -> dict:
    root = Path(args.repo).resolve()
    mutants = enumerate_mutants(root, args.functions)
    mark_equivalent(mutants, json.loads(ALLOWLIST.read_text(encoding="utf-8")))
    base = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.workdir))
    # SIGTERM becomes an exit, so the ``finally`` removes the copy and
    # ``subprocess.run`` kills the pytest it is waiting on.
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        work = workspace(root, base)
        # The unmutated modules, written back from their syntax trees, must pass.
        unmutated = {m["module"]: ast.unparse(ast.parse(m["source"])) for m in mutants}
        for module, source in unmutated.items():
            module_file(work, module).write_text(source, encoding="utf-8")
        status, baseline = run_tests(work, args.tests, timeout=3600)
        if status != "survived":
            raise SystemExit("the selected tests fail without a mutant")
        for mutant in mutants:
            if mutant.get("status") == "equivalent":
                status, seconds = "equivalent", 0.0
            else:
                target = module_file(work, mutant["module"])
                target.write_text(mutated_source(mutant), encoding="utf-8")
                status, seconds = run_tests(work, args.tests, timeout=3 * baseline + 10)
                target.write_text(unmutated[mutant["module"]], encoding="utf-8")
                mutant["seconds"] = round(seconds, 1)
            mutant["status"] = status
            print(f"{status:10} {seconds:6.1f} s  {mutant['key']}", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)
    for mutant in mutants:
        del mutant["index"], mutant["module"], mutant["source"]
    return {"tests": args.tests, "functions": args.functions, "baseline_s": round(baseline, 1),
            "mutants": mutants}


def identities(mutants: list[dict]) -> dict:
    """{(function, operator, original, mutant, ordinal): mutant}, the ordinal counting the
    earlier mutants with the same first four in source order (the order they are stored in)."""
    seen: dict = {}
    out = {}
    for m in mutants:
        base = (m["function"], m["operator"], m["original"], m["mutant"])
        seen[base] = seen.get(base, -1) + 1
        out[base + (seen[base],)] = m
    return out


def mark_equivalent(mutants: list[dict], allowlist: list[dict]) -> None:
    """Give each mutant whose identity an allowlist entry names the status ``equivalent``."""
    allow = {tuple(entry[field] for field in IDENTITY) for entry in allowlist}
    for identity, m in identities(mutants).items():
        if identity in allow:
            m["status"] = "equivalent"


def gone(root: Path, mutant: dict) -> bool:
    """Whether the mutant's function, or its original text in that function, is missing from root."""
    module, qualname = mutant["function"].split(":")
    path = module_file(root, module)
    if not path.exists():
        return True
    scope = lookup(ast.parse(path.read_text(encoding="utf-8")), qualname)
    return scope is None or mutant["original"] not in ast.unparse(scope)


def covering_test(root: Path, test: str) -> bool:
    """Whether ``path::name`` names a test function defined in root."""
    path, _, name = test.partition("::")
    file = root / path
    return bool(name) and file.exists() and f"def {name}(" in file.read_text(encoding="utf-8")


def compare(results: dict, before: str, after: str, root: Path = Path(".")) -> int:
    """Print each mutant that ``before``'s tests kill and ``after``'s do not; 1 if any, or if a
    removed kill is not listed with a covering test in the file's ``removed`` list."""
    mutants = {label: identities(results[label]["mutants"]) for label in (before, after)}
    listed = {entry["key"]: entry["test"] for entry in results.get("removed", [])
              if covering_test(root, entry.get("test", ""))}
    matched = {entry["from"]: entry["to"] for entry in results.get("matched", [])}
    after_keys = {m["key"]: m for m in results[after]["mutants"]}
    lost, removed = [], []
    for identity, m in mutants[before].items():
        if m["status"] not in KILLED:
            continue
        if m["key"] in matched:
            match = after_keys.get(matched[m["key"]])
            print(f"matched by hand to {matched[m['key']]}: {m['key']}")
        else:
            match = mutants[after].get(identity)
        if match is None and gone(root, m):
            removed.append(m["key"])
        elif match is None or match["status"] not in KILLED:
            lost.append(m["key"])
    for function in results[before]["functions"]:
        name = function.removeprefix("quiverdu.")
        killed = {label: sum(1 for m in mutants[label].values() if m["function"] == name and m["status"] in KILLED)
                  for label in (before, after)}
        print(f"{name}: killed {killed[before]} by {before}, {killed[after]} by {after}")
    for key in lost:
        print(f"killed by {before} only: {key}")
    for key in removed:
        print(f"removed, covered by {listed[key]}: {key}" if key in listed else f"removed, not listed: {key}")
    return 1 if lost or any(key not in listed for key in removed) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    argv, pytest_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("functions", nargs="*", help="module:qualname of each function to mutate")
    parser.add_argument("--tests", nargs="+", default=["tests"],
                        help="pytest selection; pytest options go after --")
    parser.add_argument("--out", required=True, help="JSON file; results merge under --label")
    parser.add_argument("--label", default="change")
    parser.add_argument("--repo", default=".", help="checkout whose src/ and tests/ are copied")
    parser.add_argument("--workdir", default=None, help="where the copies go (default: system temp)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    args.tests = args.tests + pytest_args
    out = Path(args.out)
    results = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    if args.compare:
        return compare(results, *args.compare, root=Path(args.repo).resolve())
    results[args.label] = run(args)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    survived = [m["key"] for m in results[args.label]["mutants"] if m["status"] == "survived"]
    print(f"{len(results[args.label]['mutants'])} mutants, {len(survived)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
