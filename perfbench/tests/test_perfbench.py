"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _prepare(name, tmp_path, seed=5):
    return child.prepare(name, seed, tmp_path, smoke=True)


def _round(prep, tracer=None):
    return child.run_round(prep, prep.rounds[0], time.perf_counter() + 120.0, [], tracer)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_workload_gives_known_answers(name, tmp_path):
    prep = _prepare(name, tmp_path)
    started = time.perf_counter()
    rows = _round(prep)
    assert time.perf_counter() - started < 30.0
    assert len(rows) == len(prep.rounds[0]) > 0
    assert [r["outcome"] for r in rows] == ["ok"] * len(rows)


def test_corrupted_normal_form_counts_as_failure(tmp_path):
    prep = _prepare("nf-deep", tmp_path)
    expected = prep.rounds[0][0][0].expect["nf"]
    word = sorted(expected)[0]
    expected[word] += Fraction(1)
    rows = _round(prep)
    assert rows[0]["outcome"].startswith("wrong")
    assert all(r["outcome"] == "ok" for r in rows[1:])


@pytest.mark.parametrize("kind", ["report", "iso"])
def test_flipped_verdict_counts_as_failure(kind, tmp_path):
    prep = _prepare("report-mix", tmp_path)
    op, argv = next(pair for pair in prep.rounds[0] if pair[0].kind == kind)
    if kind == "iso":
        op.expect["result"] = {"isomorphic": "not_isomorphic",
                               "not_isomorphic": "isomorphic"}[op.expect["result"]]
    else:
        op.expect["verdict"] = "fail"
    prep.rounds[0][:] = [(op, argv)]
    assert _round(prep)[0]["outcome"].startswith("wrong")


def test_iso_pairs_built_here_are_consistent():
    p = workloads.Config(3, [Fraction(1), Fraction(0), Fraction(2)],
                         [Fraction(2), Fraction(-1), Fraction(3)], [Fraction(0)] * 3)
    q = workloads.rotate(workloads.reflect(workloads.scale(p, [Fraction(2)] * 3)), 1)
    # A constant scaling fixes beta; a reflection inverts the product of beta.
    assert workloads.beta_product(q) == 1 / workloads.beta_product(p)


def _traced_counts(name, tmp_path):
    prep = _prepare(name, tmp_path)
    tracer = spans.Tracer()
    tracer.install(prep.package)
    try:
        rows = _round(prep, tracer)
    finally:
        tracer.uninstall()
    assert all(r["outcome"] == "ok" for r in rows)
    return {k: calls for k, (calls, _) in tracer.totals().items()}, len(tracer.span_name)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_call_counts_repeat_exactly(name, tmp_path):
    first = _traced_counts(name, tmp_path / "a")
    second = _traced_counts(name, tmp_path / "b")
    assert first == second
    assert first[0]["cli.main"] == len(_prepare(name, tmp_path / "c").rounds[0])


def _bindings(package):
    out = {}
    for owner in [package] + [getattr(package, m) for m in spans.MODULES]:
        out.update({(owner.__name__, k): v for k, v in vars(owner).items()})
    for (mod, cls), _ in spans.CLASS_METHODS.items():
        klass = getattr(getattr(package, mod), cls)
        out.update({(cls, k): v for k, v in vars(klass).items()})
    return out


def test_tracer_patches_every_binding_and_restores_originals(tmp_path):
    prep = _prepare("report-mix", tmp_path)
    before = _bindings(prep.package)
    tracer = spans.Tracer()
    tracer.install(prep.package)
    try:
        during = _bindings(prep.package)
        originals = {id(p[2]) for p in tracer._patches}
        # No namespace still binds an original that was wrapped.
        assert not any(id(v) in originals for v in during.values())
        assert prep.package.structure.normal_form is prep.package.rewrite.normal_form
        assert prep.package.structure.normal_form.__wrapped__ is before[
            ("quiverdu.rewrite", "normal_form")]
        _round(prep, tracer)
    finally:
        tracer.uninstall()
    after = _bindings(prep.package)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct = run.tail([float(x) for x in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nf-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "src/" in proc.stderr
