"""Byte-identity gate for the ``--json`` output of the CLI.

A fixed corpus of ``main([..., "--json"])`` calls is run and the SHA-256
of each stdout and each exit code is compared with the values committed
in ``golden_json.json``.  Refactors of the algebra must leave every
verdict and every byte of the reports unchanged.  The commands that need
no decoded rule (``nf``, ``verify pwd``, ``confluence``, ``basis``,
``hilbert --check`` and ``verify skewgroup``) must also give their bytes
with ``RewriteRule`` refused and every system built afresh, and so must
the relation checks (``report``, ``verify gwa``, ``superpotential``,
``nakayama`` and ``iso``), which read the rules as packed words.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden_json.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from quiverdu import rewrite, skewgroup
from quiverdu.cli import main
from quiverdu.core import Parameters
from quiverdu.rewrite import PRESET_QDU, RewriteRule, build_system

GOLDEN = Path(__file__).with_name("golden_json.json")

# name -> (n, alpha, beta, gamma)
CONFIGS = {
    "gamma0": (3, ["1", "-1/2", "2"], ["2", "3", "-1"], ["0", "0", "0"]),
    "gamma": (3, ["2", "3", "5"], ["7", "11", "13"], ["1", "0", "4"]),
    "beta0_n3": (3, ["1", "0", "2"], ["0", "1", "1"], ["1", "0", "0"]),
    "beta0_n4": (4, ["0", "1", "0", "0"], ["1", "0", "2", "1"], ["0", "0", "1", "0"]),
    "n2": (2, ["1", "1/2"], ["-1", "3"], ["0", "0"]),
    "skew3": (3, ["0", "0", "0"], ["-1", "-1", "-1"], ["0", "0", "0"]),
    "skew2": (2, ["0", "0"], ["-1", "-1"], ["0", "0"]),
}

# Configs used only by ``iso`` calls: name -> (n, alpha, beta, gamma).
# reflect_* is rotate^2(reflect(scale(reflect_p))): every rotation case and
# the reflection cases of shift 0 and 1 fail with ratio-cycle certificates
# before the witness.  unrelated_q has reflect_p's alpha zero pattern, and
# all eight cases end in an inconsistent ratio cycle.  zeros_q is a
# scale/rotate/reflect chain of zeros_p, whose zero alpha entries give
# zero-pattern mismatches among the failed cases.
ISO_CONFIGS = {
    "reflect_p": (4, ["2", "-1/3", "5", "1"], ["3", "-2", "1/2", "7"], ["0"] * 4),
    "reflect_q": (4, ["1/9", "-1/3", "-1/35", "150"], ["1/6", "1/30", "-3/7", "20"], ["0"] * 4),
    "unrelated_q": (4, ["1", "1", "-1", "3"], ["1", "2", "3", "4"], ["0"] * 4),
    "zeros_p": (5, ["0", "3", "0", "-1/2", "0"], ["2", "-1", "5", "1/3", "-4"], ["0"] * 5),
    "zeros_q": (5, ["18/7", "0", "0", "5", "0"], ["-6/7", "3/8", "-5/8", "14/3", "2/25"],
                ["0"] * 5),
}

ISO_PAIRS = {
    "iso/reflection-shift2": ("reflect_p", "reflect_q"),
    "iso/ratio-cycles": ("reflect_p", "unrelated_q"),
    "iso/alpha-zeros": ("zeros_p", "zeros_q"),
}

NF_INPUTS = ("1 * d0.d{last}.u{last} + 2 @1", "1/2 * d1.d0.u0.u1.d1 + -3 * u0.d0")


def corpus(paths: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(label, argv) for every call of the corpus."""
    calls: list[tuple[str, list[str]]] = []
    for name, (n, alpha, beta, gamma) in CONFIGS.items():
        cfg = paths[name]
        calls += [
            (f"{name}/report", ["report", cfg, "--trials", "10"]),
            (f"{name}/confluence", ["confluence", cfg]),
            (f"{name}/basis", ["basis", cfg, "--degree", "3"]),
            (f"{name}/hilbert", ["hilbert", cfg, "--max-degree", "6", "--check"]),
            (f"{name}/properties", ["verify", "properties", cfg]),
            (f"{name}/pwd", ["verify", "pwd", cfg, "--trials", "15", "--max-degree", "3",
                             "--seed", "5"]),
        ]
        for k, text in enumerate(NF_INPUTS):
            calls.append((f"{name}/nf{k}", ["nf", cfg, text.format(last=n - 1)]))
        beta_nonzero = all(b != "0" for b in beta)
        if beta_nonzero:
            calls.append((f"{name}/gwa", ["verify", "gwa", cfg, "--trials", "15"]))
            if all(g == "0" for g in gamma):
                calls.append((f"{name}/superpotential", ["verify", "superpotential", cfg]))
                calls.append((f"{name}/nakayama", ["verify", "nakayama", cfg]))
        else:
            calls.append((f"{name}/noetherian", ["verify", "noetherian", cfg]))
    calls += [
        ("iso/gamma0-skew3", ["iso", paths["gamma0"], "--other", paths["skew3"]]),
        ("skewgroup/n2", ["verify", "skewgroup", paths["skew2"], "--max-degree", "3"]),
        ("skewgroup/n4", ["verify", "skewgroup", paths["skew3"], "--n", "4",
                          "--max-degree", "2"]),
    ]
    calls += [(label, ["iso", paths[a], "--other", paths[b]])
              for label, (a, b) in ISO_PAIRS.items()]
    return calls


def write_configs(directory: Path) -> dict[str, str]:
    paths = {}
    for name, (n, alpha, beta, gamma) in {**CONFIGS, **ISO_CONFIGS}.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"n": n, "alpha": alpha, "beta": beta, "gamma": gamma}),
                        encoding="utf-8")
        paths[name] = str(path)
    return paths


def run_corpus(directory: Path, keep=lambda label: True) -> dict[str, dict]:
    results = {}
    for label, argv in corpus(write_configs(directory)):
        if not keep(label):
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json"])
        results[label] = {"exit": code,
                          "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}
    return results


def test_json_outputs_are_byte_identical(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_corpus(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [label for label in expected if got[label] != expected[label]]
    assert not changed, f"outputs changed: {changed}"


def built_from_tables(label: str) -> bool:
    return (label.startswith("skewgroup/")
            or label.split("/")[1] in ("nf0", "nf1", "pwd", "confluence", "basis", "hilbert"))


def refuse(rule):
    raise AssertionError(f"a RewriteRule was built: {rule.lhs}")


def test_commands_on_rule_tables_build_no_rewrite_rule(tmp_path, monkeypatch):
    monkeypatch.setattr(RewriteRule, "__post_init__", refuse)
    for cache in (rewrite._qdu_system, rewrite._preprojective_system, skewgroup.r_monomial_product):
        cache.cache_clear()
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_corpus(tmp_path, built_from_tables)
    assert len(got) == len(CONFIGS) * 6 + 2
    assert got == {label: expected[label] for label in got}


def test_no_check_decodes_the_rules(tmp_path, monkeypatch):
    # The relation checks (GWA, superpotential, Nakayama, iso witnesses) read
    # the rules as packed words too: every other command of the corpus gives
    # its bytes with RewriteRule refused, and a report leaves its system's
    # rules undecoded.
    monkeypatch.setattr(RewriteRule, "__post_init__", refuse)
    for cache in (rewrite._qdu_system, rewrite._preprojective_system, skewgroup.r_monomial_product):
        cache.cache_clear()
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_corpus(tmp_path, lambda label: not built_from_tables(label) and not label.endswith("/report"))
    assert got == {label: expected[label] for label in got}
    for name, (n, alpha, beta, gamma) in CONFIGS.items():
        label = f"{name}/report"
        assert run_corpus(tmp_path, lambda other: other == label) == {label: expected[label]}
        assert build_system(PRESET_QDU, Parameters.of(n, alpha, beta, gamma))._rules is None


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_golden_json.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        recorded = run_corpus(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} outputs to {GOLDEN}")
