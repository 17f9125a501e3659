"""Tests of the benchmark's own code: inputs, span arithmetic, output checks."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import tasks  # noqa: E402
import yardstick  # noqa: E402
from gaudin.rational import Poly  # noqa: E402
from gaudin.reps import master_polynomial  # noqa: E402


def test_inputs_are_a_function_of_the_seed():
    assert inputs.gl11_systems(7, 20) == inputs.gl11_systems(7, 20)
    assert inputs.gl11_systems(7, 20) != inputs.gl11_systems(8, 20)
    assert inputs.worked_samples(7, 10) == inputs.worked_samples(7, 10)
    assert inputs.gl31_samples(7, 10) == inputs.gl31_samples(7, 10)
    assert inputs.gl31_samples(7, 10) != inputs.gl31_samples(8, 10)
    assert inputs.gl11_samples(7, 10) == inputs.gl11_samples(7, 10)
    assert inputs.gl11_samples(7, 10) != inputs.gl11_samples(8, 10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gl11_systems_have_rational_roots_and_positive_levels(seed):
    for system in inputs.gl11_systems(seed, 30):
        zs = [Fraction(z) for z in system["points"]]
        roots = [Fraction(t) for t in system["roots"]]
        hs = [Fraction(p) + Fraction(q) for p, q in system["weights"]]
        assert len(zs) == 4 and len(set(zs)) == 4
        assert all(z.denominator == 1 for z in zs)
        assert all(h > 0 and h.denominator == 1 for h in hs)
        assert all(zs[k] < roots[k] < zs[k + 1] for k in range(3))
        assert master_polynomial(hs, zs) == Poly.from_roots(roots)


def test_samples_come_from_their_pools():
    for triple in inputs.worked_samples(3, 50):
        assert len(set(triple)) == 3
        assert triple in inputs.WORKED_SAMPLE_POOL
    for triple in inputs.gl31_samples(3, 50):
        assert len(set(triple)) == 3
        assert triple in inputs.GL31_SAMPLE_POOL
    pool = inputs.gl11_systems(inputs.GL11_POOL_SEED, inputs.GL11_POOL[-1] + 1)
    for system in inputs.gl11_samples(3, 50):
        assert system in [pool[i] for i in inputs.GL11_POOL]


def test_self_time_on_a_synthetic_tree():
    rows = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 4.5, 6.0, 0, 0],
        ["c", 5.0, 5.5, 2, 0],
        ["a", 20.0, 21.0, -1, 1],
    ]
    assert spans.self_times(rows) == pytest.approx([5.5, 3.0, 1.0, 0.5, 1.0])
    totals = spans.by_name(rows)
    assert totals["a"] == (pytest.approx(4.0), 2)
    assert totals["root"] == (pytest.approx(5.5), 1)


def test_tracer_records_parents_and_tasks():
    tracer = spans.Tracer()
    tracer.task = 5
    with tracer.span("outer"):
        assert tracer.call("inner", max, 1, 2) == 2
    (outer, inner) = tracer.spans
    assert outer[3] == -1 and inner[3] == 0
    assert outer[4] == inner[4] == 5
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def _worked_outcome() -> tasks.Outcome:
    population = {
        "nodes": [{"parity": [1, 1, -1], "ys": [["1"], ["1"]]}] * 12,
        "edges": [{"from": 0, "to": 1}] * 19,
        "components": {"1,1,-1": 4, "1,-1,1": 4, "-1,1,1": 4},
        "R_invariant": True,
    }
    space = {
        "TW": tasks.WorkedGl21.expected_tw,
        "verification": {"space_polys_match": True, "nodes": [{"matched": True}] * 12},
    }
    return tasks.Outcome(
        codes={"population": 0, "space": 0},
        payloads={"population": population, "space": space},
    )


def test_worked_check_catches_a_wrong_node_count():
    workload = tasks.WORKLOADS["worked_gl21"]
    item = tasks.Item(samples=(0, 1, 2))
    assert workload.check(item, _worked_outcome()) == []
    outcome = _worked_outcome()
    outcome.payloads["population"]["nodes"] = outcome.payloads["population"]["nodes"][:11]
    assert workload.check(item, outcome)
    outcome = _worked_outcome()
    outcome.codes["space"] = 1
    assert workload.check(item, outcome)


def test_gl31_check_catches_counts_and_dangling_edges():
    workload = tasks.WORKLOADS["gl31_growth"]
    item = tasks.Item(samples=(1, 5, 6))
    nodes, edges = inputs.GL31_NODES, inputs.GL31_EDGES
    good = {
        "nodes": [{}] * nodes,
        "edges": [{"from": k % nodes, "to": (k + 1) % nodes} for k in range(edges)],
        "eigenvalues_conserved": True,
    }
    assert workload.check(item, tasks.Outcome(payloads={"population": good})) == []
    for change in ({"nodes": [{}] * (nodes - 1)}, {"edges": [{"from": 0, "to": nodes}] * edges},
                   {"eigenvalues_conserved": False}):
        bad = {**good, **change}
        assert workload.check(item, tasks.Outcome(payloads={"population": bad}))


def test_gl11_task_passes_and_a_corrupted_report_fails():
    workload = tasks.WORKLOADS["gl11_spectra"]
    item = workload.items(0, 1)[0]
    outcome = tasks.parse(workload.run(item))
    assert workload.check(item, outcome) == []
    outcome.payloads["gl11-spectrum"]["total_eigenlines"] = 7
    assert workload.check(item, outcome)


class _FlakyWorkload:
    """Instant tasks: item 1 gives a wrong answer, item 2 raises."""

    def run(self, item):
        if item == 2:
            raise RuntimeError("boom")
        return {"step": (0, json.dumps({"answer": 42 if item != 1 else 41}))}

    def check(self, item, outcome):
        return [] if outcome.payloads["step"]["answer"] == 42 else ["wrong answer"]


def test_failed_tasks_are_counted_and_do_not_stop_the_window():
    counts = run.timed_window(_FlakyWorkload(), [0, 1, 2, 3], seconds=0.05)
    assert counts["attempted"] >= 4
    assert counts["failed"] >= 2
    assert counts["verified"] + counts["failed"] == counts["attempted"] == len(counts["spans"])
    assert all(start <= end and cpu >= 0 for start, end, cpu in counts["spans"])


def test_calibration_scales_cpu_seconds_by_the_pace_inside_the_interval():
    ref = yardstick.REFERENCE_S
    samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref), (9.0, 3 * ref)]
    assert yardstick.pace(samples, 1.5, 3.5) == pytest.approx(3 * ref)
    assert yardstick.calibrated(6.0, samples, 1.5, 3.5) == pytest.approx(2.0)
    assert yardstick.calibrated(6.0, samples, 1.0, 1.0) == pytest.approx(6.0)
    assert yardstick.calibrated(6.0, samples, 7.0, 8.0) == pytest.approx(2.0)  # nearest: t=9
    assert 0 < yardstick.yardstick() < 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == run.layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
