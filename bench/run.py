"""gaudin benchmark: seeded exact-pipeline workloads, end to end and per layer.

    python3 bench/run.py --workload worked_gl21 --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all            # every workload, one table each

Workloads (see tasks.py): ``worked_gl21``, ``gl31_growth``, ``gl11_spectra``.
Loads are closed-loop: one process, no threads, each task starts when the
previous one has ended; only the gauge described below runs beside it.

``--trace 0`` measures the end-to-end metrics.  The run is split over
three worker processes run one after another; each one imports gaudin,
builds the seed's inputs and runs one untimed warm-up task (its set-up,
counted from the moment the process was started), then runs timed tasks
for a third of ``--seconds``.  Each worker shares one CPU with a gauge
process (yardstick.py) that samples the CPU's current speed, and every
time is reported in calibrated seconds: CPU seconds scaled to a fixed
reference speed, so that a slower phase of a shared machine does not read
as a slower program.  Reported: ``tasks_per_s`` (verified tasks per timed
second), ``task_s.p50`` (median task seconds), ``setup_s`` (median set-up
of the three workers) and ``peak_rss_mb`` (largest worker peak resident
set).  The table also prints wall seconds and the machine's pace.
``fail_ratio`` is printed in the table; the result line carries it as
``failed`` of ``attempted``.

``--trace 1`` runs a fixed number of the seed's tasks, so that its counts
repeat exactly.  Each task runs untraced, then is replayed as the public
calls it makes inside spans, then lower layers are probed on its data.
Reported: every metric of layers.json, per traced task, and
``trace.overhead_ratio``; their seconds are wall seconds, not calibrated.
Spans are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("worked_gl21", "gl31_growth", "gl11_spectra")
SETUPS = 3
END_TO_END = ("tasks_per_s", "task_s.p50", "setup_s", "peak_rss_mb")
# A worker gets its share of --seconds plus this margin for its set-up and
# its last task; a worker that overruns it is killed and counted as one
# failed task.  Three stuck workers at --seconds 24 take 159 s.
WORKER_MARGIN_S = 45


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, from layers.json."""
    out = []
    for layer in json.loads((BENCH / "layers.json").read_text())["layers"]:
        for fn in layer["functions"] + layer["probes"]:
            out.append((f"{fn}.s", "s", "lower"))
            out.append((f"{fn}.calls", "count", "lower"))
        for count in layer["counts"]:
            if count.endswith("_ratio"):
                better = "higher" if count == "bethe.new_node_ratio" else "lower"
                out.append((count, "ratio", better))
            else:
                out.append((count, "count", "lower"))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def attempt(workload, item):
    """Run and check one task: (seconds, outcome or None, problems)."""
    import tasks

    start = time.perf_counter()
    try:
        raw = workload.run(item)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, None, ["raised"]
    seconds = time.perf_counter() - start
    try:
        outcome = tasks.parse(raw)
        return seconds, outcome, workload.check(item, outcome)
    except Exception:
        traceback.print_exc()
        return seconds, None, ["output could not be checked"]


# -- end-to-end ----------------------------------------------------------------


def timed_window(workload, order, seconds: float) -> dict:
    """Closed loop over ``order``, cycled, until ``seconds`` have passed.

    Each task is recorded as [start, end, CPU seconds], start and end on
    the ``perf_counter`` clock.  A task that fails its check or raises is
    counted and the loop goes on.
    """
    spans, verified, failed = [], 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        began, cpu = time.perf_counter(), time.process_time()
        _, _, problems = attempt(workload, order[len(spans) % len(order)])
        spans.append([began, time.perf_counter(), time.process_time() - cpu])
        if problems:
            failed += 1
            print(f"task failed: {problems}", file=sys.stderr)
        else:
            verified += 1
    return {"spans": spans, "verified": verified, "failed": failed, "attempted": len(spans)}


def worker(args) -> None:
    """One set-up followed by a timed window; prints its raw figures."""
    import tasks

    workload = tasks.WORKLOADS[args.workload]
    items = workload.items(args.seed, workload.stream + 1)
    _, _, problems = attempt(workload, items[0])  # the warm-up task
    setup = [args.started, time.perf_counter(), time.process_time()]
    if problems:
        print(f"warm-up task failed: {problems}", file=sys.stderr)
    counts = timed_window(workload, items[1:][args.part :: SETUPS], args.seconds)
    counts["attempted"] += 1
    counts["failed"] += bool(problems)
    print(json.dumps({"setup": setup, "peak_rss_mb": peak_rss_mb(), **counts}))


def run_worker(name: str, seed: int, seconds: float, part: int) -> dict | None:
    """One worker next to its gauge; its figures in calibrated seconds, or None."""
    import yardstick

    gauge = subprocess.Popen(
        [sys.executable, str(BENCH / "yardstick.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--worker",
            "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
            "--part", str(part),
        ]
        try:
            proc = subprocess.run(
                cmd + ["--started", repr(time.perf_counter())], stdout=subprocess.PIPE,
                text=True, timeout=seconds + WORKER_MARGIN_S, check=False,
            )
        except subprocess.TimeoutExpired:
            print(f"{name}: worker {part} timed out", file=sys.stderr)
            return None
    finally:
        samples, _ = gauge.communicate("")
    if proc.returncode != 0:
        print(f"{name}: worker {part} exited {proc.returncode}", file=sys.stderr)
        return None
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    samples = [tuple(map(float, line.split())) for line in samples.splitlines() if line]
    if not samples:
        print(f"{name}: the gauge of worker {part} took no sample", file=sys.stderr)
        return None

    def cal(start, end, cpu_s):
        return yardstick.calibrated(cpu_s, samples, start, end)

    return {
        **raw,
        "setup_s": cal(*raw["setup"]),
        "times": [cal(*span) for span in raw["spans"]],
        "wall": [end - start for start, end, _ in raw["spans"]],
        "pace": statistics.median(s for _, s in samples) / yardstick.REFERENCE_S,
    }


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    # Workers and gauges inherit this CPU, so each gauge times the CPU its
    # worker runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    parts, lost = [], 0
    for part in range(SETUPS):
        result = run_worker(name, seed, seconds / SETUPS, part)
        if result is None:
            lost += 1
        else:
            parts.append(result)
    attempted = sum(p["attempted"] for p in parts) + lost
    failed = sum(p["failed"] for p in parts) + lost
    print(f"{name}  seed={seed}  seconds={seconds:g}")
    print(f"  {'fail_ratio':<14} {failed / attempted:<12.4f} {'':<5} {failed} of {attempted} attempted"
          + (f", {lost} lost with their worker" if lost else ""))
    if not parts:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    times = [t for p in parts for t in p["times"]]
    wall = [t for p in parts for t in p["wall"]]
    verified = sum(p["verified"] for p in parts)
    metrics = {
        "tasks_per_s": (verified / sum(times), "1/s", f"{verified} verified tasks in {sum(times):.1f} s"),
        "task_s.p50": (statistics.median(times), "s", f"n={len(times)}; wall {statistics.median(wall):.4g} s"),
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s", f"median of {len(parts)} set-ups"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB", f"max of {len(parts)} processes"),
    }
    for key, (value, unit, note) in metrics.items():
        print(f"  {key:<14} {value:<12.6g} {unit:<5} {note}")
    paces = ", ".join(f"{p['pace']:.3f}" for p in parts)
    print(f"  machine pace (yardstick seconds / reference, per worker): {paces}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


# -- traced ----------------------------------------------------------------------


def traced(name: str, seed: int) -> dict:
    import spans
    import tasks

    workload = tasks.WORKLOADS[name]
    items = workload.items(seed, workload.trace_tasks + 1)
    tracer = spans.Tracer()
    attempted = failed = nonzero_exits = 0
    untraced_s = traced_s = 0.0
    nodes = edges = diagnostics = 0
    max_counts = {"rational.max_degree": 0, "rational.max_coeff_bits": 0, "reps.dim": 0}
    nondeterministic = []
    attempt(workload, items[0])  # warm-up, as in the timed runs
    for task_id, item in enumerate(items[1:]):
        attempted += 1
        seconds, untraced_out, problems = attempt(workload, item)
        untraced_s += seconds
        if untraced_out is not None:
            nonzero_exits += sum(1 for code in untraced_out.codes.values() if code != 0)
        tracer.task = task_id
        state = tasks.State()
        start = time.perf_counter()
        try:
            with tracer.span("bench.task"):
                raw, state = workload.replay(item, tracer)
            traced_s += time.perf_counter() - start
            traced_out = tasks.parse(raw)
            problems += workload.check(item, traced_out)
            counts = tasks.exact_counts(traced_out, workload.polys(traced_out))
            if untraced_out is not None:
                expected = tasks.exact_counts(untraced_out, workload.polys(untraced_out))
                if counts != expected:
                    nondeterministic.append((task_id, expected, counts))
            with tracer.span("bench.probe"):
                workload.probe(item, state, tracer)
        except Exception:
            traceback.print_exc()
            problems.append("traced replay raised")
            counts = {}
        if problems:
            failed += 1
            print(f"task {task_id} failed: {problems}", file=sys.stderr)
        for key in ("rational.max_degree", "rational.max_coeff_bits"):
            max_counts[key] = max(max_counts[key], counts.get(key, 0))
        if state.pop is not None:
            nodes += len(state.pop.nodes)
            edges += len(state.pop.edges)
            diagnostics += len(state.pop.diagnostics)
        if state.system is not None:
            max_counts["reps.dim"] = max(max_counts["reps.dim"], state.system.dim)
    for entry in nondeterministic:
        print(f"nondeterminism: task {entry[0]} untraced {entry[1]} traced {entry[2]}", file=sys.stderr)

    per_task = workload.trace_tasks
    totals = spans.by_name(tracer.spans)
    values = {
        "bethe.nodes": nodes / per_task,
        "bethe.edges": edges / per_task,
        "bethe.failed_reproductions": diagnostics / per_task,
        "bethe.new_node_ratio": (nodes - per_task) / edges if edges else 0.0,
        "cli.nonzero_exits": nonzero_exits / per_task,
        "trace.overhead_ratio": traced_s / untraced_s,
        **max_counts,
    }
    metrics = {}
    for metric, unit, _ in layer_metrics():
        if metric in values:
            value = values[metric]
        else:
            fn, kind = metric.rsplit(".", 1)
            secs, calls = totals.get(fn, (0.0, 0))
            value = (secs if kind == "s" else calls) / per_task
        metrics[metric] = {"value": value, "unit": unit}

    print(f"{name}  seed={seed}  traced tasks={per_task}  (values per traced task)")
    layers: dict[str, float] = {}
    for fn, (secs, _) in totals.items():
        layers[fn.split(".")[0]] = layers.get(fn.split(".")[0], 0.0) + secs
    total_self = sum(layers.values())
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  layer {layer:<10} {secs / per_task:10.4f} s  {100 * secs / total_self:5.1f}% of self time")
    for metric, entry in metrics.items():
        print(f"  {metric:<48} {entry['value']:<12.6g} {entry['unit']}")
    tracer.write(BENCH / "out" / f"spans-{name}-seed{seed}.jsonl")
    correct = failed == 0 and not nondeterministic
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gaudin" / "__init__.py").is_file():
        print(f"gaudin sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker:
        worker(args)
        return 0
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        if args.trace:
            result = traced(name, args.seed)
        else:
            result = end_to_end(name, args.seed, args.seconds)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
