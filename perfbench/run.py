"""quiverdu benchmark: time to verdict of CLI commands on seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload nf-deep --seed 1 --seconds 16 --trace 0

Workloads (see ``workloads.py``): ``nf-deep``, ``skew-cyclotomic`` and
``report-mix``.  The benchmark is a closed loop with one client: a child
process (``child.py``) imports quiverdu from ``src/`` and calls
``quiverdu.cli.main(argv)`` for one operation at a time, checking every
answer against a known answer.  No threads, no other processes.

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``.
Times are at reference host speed: raw seconds scaled by the host-speed
kernel of ``speed.py``, timed between operations (raw values stay in the
rows and the report file).

* ``setup_s``: median over several child starts of the time from starting
  the child to its first operation being ready (interpreter start,
  ``import quiverdu``, inputs generated and written);
* ``wall_s``: median over rounds of the summed time to verdict of one
  round's operation list (each round draws fresh inputs from the seed);
* ``verdict_p50_s`` and ``verdict_tail_s``: median and the highest
  percentile with at least ten samples beyond it, over every operation
  of every round;
* ``peak_rss_mb``: peak resident memory of the child.

With ``--trace 1`` it runs one round untraced and then again with spans
around every public quiverdu function (``spans.py``) and prints the
per-layer metrics of the traced round.  Every operation gets its own row
on standard output and in ``.perfbench_work/``; the last line is one JSON
object.  ``meta.json`` maps layer metrics to end-to-end metrics and
records the machine and the spread measured on it.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Rounds of the operation list per run: the work is fixed by --seconds,
# not by how fast the code is, so two commits measure the same samples.
# The nominal round times were measured on the machine in meta.json.
NOMINAL_ROUND_S = {"nf-deep": 5.5, "skew-cyclotomic": 21.0, "report-mix": 5.5}
MIN_ROUNDS = 2
SETUP_SAMPLES = 7
SETUP_SPEED_SAMPLES = 3
# The measuring child is killed (and the run fails) after this long;
# child.py stops starting operations well before.
RUN_TIMEOUT_S = 170.0
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def summarize(rounds: list[list[dict]], factor: float = 1.0) -> dict:
    """End-to-end times over all rounds, each raw time multiplied by ``factor``."""
    samples = [r["seconds"] * factor for rows in rounds for r in rows if r["seconds"] is not None]
    tail_s, tail_pct = tail(samples)
    return {
        "wall_s": statistics.median(sum(r["seconds"] or 0.0 for r in rows) * factor
                                    for rows in rounds),
        "verdict_p50_s": statistics.median(samples),
        "verdict_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "samples": len(samples),
    }


def op_rows(labels: list[list[str]], rounds: list[list[dict]]) -> list[dict]:
    """One row per operation of every round."""
    return [{"round": k, "label": label, **row}
            for k, (names, rows) in enumerate(zip(labels, rounds))
            for label, row in zip(names, rows)]


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, workdir: Path, timeout: float, *extra: str) -> float:
    """Run the child to its end; return its set-up time (until it prints 'ready')."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise ChildFailed("child did not get ready")
            proc.wait(timeout=max(0.0, timeout - setup_s))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"child still running after {timeout:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}")
    return setup_s


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    workdir = ROOT / ".perfbench_work" / f"{workload}-seed{seed}"
    out = workdir / f"result-trace{trace}.json"
    setups, reference = [], []
    if not trace:
        # One untimed start first, so that compiling src/ to bytecode is
        # not counted as set-up; users pay it once per install.
        for k in range(SETUP_SAMPLES):
            reference.extend(speed.sample() for _ in range(SETUP_SPEED_SAMPLES))
            setup_s = run_child(workload, seed, workdir, 30.0, "--setup-only")
            if k:
                setups.append(setup_s)
    rounds = max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))
    setups.append(run_child(workload, seed, workdir, deadline - time.perf_counter(),
                            "--rounds", str(rounds), "--trace", str(trace), "--out", str(out)))
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_samples"] = setups
    if trace:
        return result, {}
    reference.extend(speed.sample() for _ in range(SETUP_SPEED_SAMPLES))
    return result, {"setup_s": statistics.median(setups) * speed.factor(reference),
                    "raw_setup_s": statistics.median(setups)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quiverdu benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "quiverdu" / "cli.py").is_file():
        print("error: no quiverdu sources under src/; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        result, extra = measure(args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows = op_rows(result["labels"], result["rounds"])
    for r in rows:
        seconds = "-" if r["seconds"] is None else f"{r['seconds']:.4f}s"
        print(f"round {r['round']} op {r['op']:3d}  {seconds:>10}  {r['outcome']:<8}  {r['label']}")
    attempted = len(rows)
    failed = sum(1 for r in rows if r["outcome"] != "ok")
    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        factor = speed.factor(result["reference_s"])
        values = {**summarize(result["rounds"], factor), **extra,
                  "raw": summarize(result["rounds"]), "speed_factor": factor,
                  "peak_rss_mb": result["peak_rss_mb"]}
        wanted = spec["end_to_end"]
        print(f"samples {values['samples']} in {len(result['rounds'])} rounds; "
              f"verdict_tail_s is the p{values['tail_percentile']:.1f}; "
              f"setup samples {len(result['setup_samples'])}; cold start {result['cold_start']}")
    result.update(workload=args.workload, seed=args.seed, rows=rows, metrics=values)
    report = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}" / \
        f"report-trace{args.trace}.json"
    report.write_text(json.dumps(result, indent=1), encoding="utf-8")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
