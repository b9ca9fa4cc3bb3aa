"""The measured process: set up one workload, then drive quiverdu's CLI.

``run.py`` starts this file as a child process.  Set-up is interpreter
start, ``import quiverdu``, and the workload's inputs generated from the
seed and written to the work directory; the child then prints ``ready``.
After that it runs the operation list in a closed loop: one operation at a
time, each a call to ``quiverdu.cli.main(argv)`` in this process, timed
from the call to the returned exit code.

Every operation starts cold: the package's module-level ``lru_cache``s are
cleared with ``cache_clear()`` before it (``COLD_START``).  A per-operation
cap, a real-time alarm in this process only, turns a blow-up into a
``capped`` row.  Once the run's budget is spent, the remaining operations
are ``skipped``; both count as failed.  In the gaps between operations
the child times the host-speed kernel of ``speed.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

COLD_START = "cache_clear"
OP_CAP_S = 45.0
RUN_BUDGET_S = 110.0
# Host-speed samples (speed.py): one per this much time since the last
# ones, taken in the gap before the next operation, at most
# MAX_SAMPLES_PER_GAP at a time.
SAMPLE_EVERY_S = 0.25
MAX_SAMPLES_PER_GAP = 20


class OpCapped(BaseException):
    """Raised by the alarm; a BaseException so that no handler in quiverdu eats it."""


def _on_alarm(signum, frame):
    raise OpCapped()


@dataclass
class Prepared:
    package: object
    rounds: list[list[tuple[workloads.Op, list[str]]]]  # (operation, argv)
    caches: dict[str, object]


def prepare(workload: str, seed: int, workdir: Path, rounds: int = 1,
            smoke: bool = False) -> Prepared:
    """Import quiverdu from the checkout and write the workload's inputs."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("quiverdu")
    for name in spans.MODULES:
        importlib.import_module(f"quiverdu.{name}")
    wl = workloads.build(workload, seed, rounds, smoke)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in wl.configs.items():
        path = workdir / f"{name}.json"
        path.write_text(cfg.to_json(), encoding="utf-8")
        paths["{%s}" % name] = str(path)
    ops = [[(op, [paths.get(a, a) for a in op.argv]) for op in ops] for ops in wl.rounds]
    caches = {}
    for name in spans.MODULES:
        mod = getattr(package, name)
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                caches[f"{name}.{attr}"] = obj
    return Prepared(package, ops, caches)


def run_op(main, argv: list[str], cap_s: float) -> tuple[float, int | None, str, str | None]:
    """(seconds, exit code, stdout, error) for one call of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    error, code, elapsed = None, None, cap_s
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            t0 = time.perf_counter()
            try:
                code = main(argv)
            finally:
                elapsed = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OpCapped:
        error = "capped"
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash of the program under test is a failed row
        error = f"error: {type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return elapsed, code, out.getvalue(), error


def sample_speed(reference: list[float], since: float) -> float:
    """Append host-speed samples for the time since ``since``; return now."""
    count = int((time.perf_counter() - since) / SAMPLE_EVERY_S)
    reference.extend(speed.sample() for _ in range(max(1, min(count, MAX_SAMPLES_PER_GAP))))
    return time.perf_counter()


def run_round(prep: Prepared, ops, deadline: float, reference: list[float],
              tracer=None) -> list[dict]:
    """Run each (operation, argv) of ``ops`` once; one row per operation.
    Host-speed samples taken in the gaps are appended to ``reference``."""
    rows = []
    rmono = prep.caches.get("skewgroup.r_monomial_product")
    last_sample = time.perf_counter()
    for index, (op, argv) in enumerate(ops):
        for cache in prep.caches.values():
            cache.cache_clear()
        gc.collect()
        last_sample = sample_speed(reference, last_sample)
        if time.perf_counter() > deadline:
            rows.append({"op": index, "seconds": None, "outcome": "skipped"})
            continue
        if tracer is not None:
            tracer.op_id = index
        # Looked up per call, so that the traced round calls the wrapper.
        seconds, code, output, error = run_op(prep.package.cli.main, argv, OP_CAP_S)
        if error is None:
            problem = workloads.check(op, code, output)
            outcome = "ok" if problem is None else f"wrong: {problem}"
        else:
            outcome = error
        row = {"op": index, "seconds": seconds, "outcome": outcome}
        if tracer is not None and rmono is not None:
            info = rmono.cache_info()
            row["rmono_hits"], row["rmono_misses"] = info.hits, info.misses
        rows.append(row)
    sample_speed(reference, last_sample)
    return rows


def layer_metrics(tracer: spans.Tracer, rows: list[dict], overhead_s: float) -> dict:
    """Per-layer numbers of one traced round of the operation list."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    nf_calls = calls("rewrite.normal_form_path")
    adds = calls("linalg.rowspace_add")
    tested = tracer.edge_count("structure.pwd_probe_H", "rewrite.normal_form")
    rm_hits = sum(r.get("rmono_hits", 0) for r in rows)
    rm_lookups = rm_hits + sum(r.get("rmono_misses", 0) for r in rows)
    m = {
        "rewrite.normal_form_path.calls": nf_calls,
        "rewrite.normal_form_path.self_s": self_s("rewrite.normal_form_path"),
        "rewrite.nf_memo_hit_ratio": ratio(tracer.nf_memo_hits, nf_calls),
        "rewrite.nf_terms_out": tracer.nf_terms_out,
        "rewrite.build_system.calls": calls("rewrite.build_system"),
        "rewrite.check_confluence.calls": calls("rewrite.check_confluence"),
        "rewrite.check_confluence.self_s": self_s("rewrite.check_confluence"),
        "rewrite.normal_form.calls": calls("rewrite.normal_form"),
        "rewrite.enumerate_basis.self_s": self_s("rewrite.enumerate_basis"),
        "rewrite.dimension_matrix.self_s": self_s("rewrite.dimension_matrix"),
        "core.multiply.calls": calls("core.multiply"),
        "core.multiply.self_s": self_s("core.multiply"),
        "linalg.rowspace_add.calls": adds,
        "linalg.rowspace_add.self_s": self_s("linalg.rowspace_add"),
        "linalg.rowspace_useful_ratio": ratio(tracer.rowspace_useful, adds),
        "linalg.rowspace_width_max": tracer.rowspace_width_max,
        "cyclotomic.mul.calls": calls("cyclotomic.mul"),
        "cyclotomic.inverse.calls": calls("cyclotomic.inverse"),
        "skewgroup.smash_multiply.calls": calls("skewgroup.smash_multiply"),
        "skewgroup.smash_multiply.self_s": self_s("skewgroup.smash_multiply"),
        "skewgroup.verify_quotient_match.self_s": self_s("skewgroup.verify_quotient_match"),
        "skewgroup.rmono_cache_hit_ratio": ratio(rm_hits, rm_lookups),
        "skewgroup.rmono_lookups": rm_lookups,
        "gwa.gwa_multiply.calls": calls("gwa.gwa_multiply"),
        "gwa.gwa_multiply.self_s": self_s("gwa.gwa_multiply"),
        "gwa.theta_prime.calls": calls("gwa.theta_prime"),
        "gwa.theta_prime.self_s": self_s("gwa.theta_prime"),
        "gwa.sigma_power.calls": calls("gwa.sigma_power"),
        "structure.pwd_probe_H.self_s": self_s("structure.pwd_probe_H"),
        "structure.noetherian_chain_check.self_s": self_s("structure.noetherian_chain_check"),
        "structure.property_report.self_s": self_s("structure.property_report"),
        "structure.build_superpotential.self_s": self_s("structure.build_superpotential"),
        "structure.pwd_tested_ratio": ratio(tested, tracer.pwd_trials_requested),
        "structure.pwd_trials_requested": tracer.pwd_trials_requested,
        "hilbert.closed_form_check.self_s": self_s("hilbert.closed_form_check"),
        "hilbert.invert_series.self_s": self_s("hilbert.invert_series"),
        "iso.decide_graded_iso.self_s": self_s("iso.decide_graded_iso"),
        "iso.verify_witness.calls": calls("iso.verify_witness"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_s": overhead_s,
        "trace.traced_s": tracer.traced_s(),
        "trace.spans": len(tracer.span_name),
    }
    for module, seconds in tracer.module_self_s().items():
        m[f"{module}.self_s"] = seconds
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    workdir = Path(args.workdir)
    # A traced run repeats one list, untraced and then traced.
    prep = prepare(args.workload, args.seed, workdir, 1 if args.trace else args.rounds)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    deadline = started + RUN_BUDGET_S
    reference: list[float] = []
    result = {"cold_start": COLD_START, "op_cap_s": OP_CAP_S, "reference_s": reference}
    if args.trace:
        ops = prep.rounds[0]
        result["labels"] = [[op.label for op, _ in ops]] * 2
        plain = run_round(prep, ops, deadline, reference)
        tracer = spans.Tracer()
        tracer.install(prep.package)
        try:
            traced = run_round(prep, ops, deadline, reference, tracer)
        finally:
            tracer.uninstall()
        result["rounds"] = [plain, traced]
        walls = [sum(r["seconds"] or 0.0 for r in rows) for rows in (plain, traced)]
        overhead_s = (walls[1] - walls[0]) * speed.factor(reference)
        result["layers"] = layer_metrics(tracer, traced, overhead_s)
        tracer.write_spans(workdir / "spans.csv.gz")
    else:
        result["labels"] = [[op.label for op, _ in ops] for ops in prep.rounds]
        result["rounds"] = [run_round(prep, ops, deadline, reference) for ops in prep.rounds]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
