"""Self-tests of the benchmark.

Run from the root of a checkout: python3 -m pytest -q perfbench/test_bench.py
They spawn real CLI processes and take under a minute; the E7
span check alone traces a request of about 15 s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

ENV = run.child_env()


def _items(workload, verbs_and_groups=None):
    """The workload's requests in text format, optionally filtered by their
    leading arguments."""
    requests = run.WORKLOADS[workload]
    if verbs_and_groups is not None:
        requests = [r for r in requests if r.args in verbs_and_groups]
    return [run.Planned(r, "text") for r in requests]


def _traced_pass(items):
    result = run.run_pass(items, True, run.load_digests(), ENV)
    assert result.failed == 0, [row.verdict for row in result.rows]
    return result


def _inclusive(trace, name):
    """Time inside spans called `name`, counting each outermost one once."""
    names, spans = trace["names"], trace["spans"]
    total = 0.0
    for index, start, end, parent in spans:
        if names[index] != name:
            continue
        while parent >= 0 and names[spans[parent][0]] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


@pytest.fixture(scope="module")
def tower_passes():
    items = _items("tower")
    return [_traced_pass(items) for _ in range(2)]


def test_corrupted_stdout_counts_as_failure():
    items = _items("describe", {("roots", "--family", "A", "--rank", "4"),
                                ("centers", "--family", "A", "--rank", "4")})
    assert len(items) == 2

    def corrupting_spawn(argv, env, trace_pipe=False):
        outcome = run.spawn(argv, env, trace_pipe)
        if "roots" in argv:
            outcome.stdout = outcome.stdout.replace(b"alpha_1", b"alpha_l")
        return outcome

    result = run.run_pass(items, False, run.load_digests(), ENV, spawn=corrupting_spawn)
    verdicts = {row.item.request.args[0]: row.verdict for row in result.rows}
    assert verdicts == {"roots": "stdout differs from stored digest", "centers": "ok"}
    assert result.failed == 1


def test_wrong_answer_counts_as_failure():
    item = _items("classify", {("count-small", "--family", "E6")})[0]
    outcome = run.Outcome(0, b"2\n", b"", b"", 1.0, 1.0, 1)
    assert run.verdict(item, outcome, run.load_digests()) == "answer (2,), expected (1,)"


def test_traced_calls_repeat_exactly(tower_passes):
    first, second = (run.pass_layers(p)[0] for p in tower_passes)
    assert first == second
    assert first["parameters.length.calls"] > 0


def test_tower_is_dominated_by_length_and_skips_coherent(tower_passes):
    counts = run.pass_layers(tower_passes[0])[0]
    assert not [name for name, n in counts.items() if name.startswith("coherent.") and n]
    traces = [json.loads(row.outcome.trace) for row in tower_passes[0].rows]
    length = sum(_inclusive(t, "parameters.length") for t in traces)
    main = sum(_inclusive(t, "cli.main") for t in traces)
    assert length > 0.5 * main


def test_classify_hot_path_is_mat_mul():
    _, times = run.pass_layers(_traced_pass(_items("classify")))
    assert max(times, key=times.get) == "root_system.mat_mul.self_s"


def test_describe_e8_requests_spend_most_self_time_building_the_root_system():
    e8 = {("roots", "--family", "E8"), ("centers", "--family", "E8"),
          ("replay-witness", "--id", "E8-230")}
    result = _traced_pass(_items("describe", e8))
    assert len(result.rows) == 3
    for row in result.rows:
        _, self_s = run.self_times(json.loads(row.outcome.trace))
        assert max(self_s, key=self_s.get) == "root_system.build_root_system", row.item.key


def test_self_times_cover_the_e7_request():
    item = run.Planned(run.Request(("count-small", "--family", "E7")), "text")
    outcome = run.spawn(run.traced_argv(item, "0"), ENV, trace_pipe=True)
    assert outcome.code == 0 and outcome.stdout == b"4\n"
    trace = json.loads(outcome.trace)
    _, self_s = run.self_times(trace)
    total = sum(self_s.values())
    # Self times telescope to the root span, cli.main.
    assert total == pytest.approx(_inclusive(trace, "cli.main"), abs=1e-6)
    # The rest of the wall time is the span-boundary gap: interpreter start,
    # import, writing the spans out and exit.
    gap = outcome.wall_s - total
    assert trace["import_s"] < gap < trace["import_s"] + 0.02 * outcome.wall_s + 0.1


def test_benchmark_json_names_the_metrics_and_workloads_run_emits():
    with open(run.SPEC) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    outcome = run.Outcome(0, b"", b"", b"", 1.0, 1.0, 1024)
    fake = run.PassResult(False, [run.Row(0, None, outcome, "ok", (1.0, 1.0))], [(0.1, 0.1)])
    metrics, _ = run.end_to_end([fake])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in metrics.items()]


def test_end_to_end_times_are_scaled_by_the_neighbouring_reference_runs():
    def row(index, wall, reference):
        outcome = run.Outcome(0, b"", b"", b"", wall, wall / 2, 1024)
        return run.Row(index, None, outcome, "ok", (reference, reference / 2))

    # The host runs the second pass at half speed; the reference shows it.
    passes = [run.PassResult(False, [row(0, 0.3, 0.1), row(1, 0.6, 0.1)], [(0.2, 0.1)]),
              run.PassResult(False, [row(0, 0.6, 0.2), row(1, 1.2, 0.2)], [(0.4, 0.2)])]
    metrics, _ = run.end_to_end(passes)
    ref = run.REFERENCE_S
    assert metrics["wall_s"][0] == pytest.approx(9 * ref)
    assert metrics["cpu_s"][0] == pytest.approx(9 * ref)
    assert metrics["latency_max_s"][0] == pytest.approx(6 * ref)
    assert metrics["setup_s"][0] == pytest.approx(2 * ref)
    raw, _ = run.end_to_end(passes, normalise=False)
    assert raw["wall_s"][0] == pytest.approx(0.45 + 0.9)


def test_trimmed_mean_drops_the_outer_fifths():
    assert run.trimmed_mean([3.0, 1.0, 2.0, 100.0, 0.0]) == pytest.approx(2.0)
    assert run.trimmed_mean([1.0, 2.0]) == pytest.approx(1.5)
