"""Tests of the benchmark itself: inputs, checks and tracing."""

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import redeploy  # noqa: E402
import redeploy.cli  # noqa: E402,F401

import calibrate  # noqa: E402
import generators  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference(HERE / "reference.json")


def costs(name):
    return {e["index"]: e["cost_s"] for e in REFERENCE[name]}


def expects(name):
    return {e["index"]: e["expect"] for e in REFERENCE[name]}


def cheapest_audited_entry():
    """The cheapest audit entry whose audit tries some misreports."""
    entries = [e for e in REFERENCE["audit"]
               if e["expect"]["misreports_tested"]]
    return min(entries, key=lambda e: e["cost_s"])["index"]


def test_generators_are_deterministic_for_a_seed():
    for name in workloads.WORKLOADS:
        for index in range(6):
            first = workloads.make_doc(redeploy, name, index)
            assert first == workloads.make_doc(redeploy, name, index)
            workloads.parse_doc(redeploy, *first)
        workload = workloads.WORKLOADS[name]
        picked = workloads.select(workload, costs(name), seed=7)
        assert picked == workloads.select(workload, costs(name), seed=7)
        assert picked != workloads.select(workload, costs(name), seed=8)
        assert len(set(picked)) == workload.pool // workloads.STRATUM


def test_typed_and_extended_documents():
    typed = [generators.deep_doc(redeploy.generate, i)
             for i in range(2, 30, 3)]
    for doc in typed:
        instance = redeploy.validate_typed(doc)
        assert len(instance.deficit_positions) in (5, 6)
        assert any(s.kind == "mixed" for s in instance.schools)
        assert len(instance.transferable_teachers) < len(instance.teachers)
    extended = generators.deep_doc(redeploy.generate, 1)
    surplus = {s["id"] for s in extended["surplus_schools"]}
    chained = sum(1 for t in extended["teachers"]
                  if surplus & set(t["acceptable"]))
    assert 0.2 < chained / len(extended["teachers"]) < 0.4


def test_spread_order_prefixes_cover_the_range():
    order = workloads.spread_order(20)
    assert sorted(order) == list(range(20))
    for m in (4, 5, 10):
        assert sorted(k * m // 20 for k in order[:m]) == list(range(m))


def flip_one_destination(transfer: dict, instance) -> dict:
    """Send the first moved teacher somewhere else (or home)."""
    teacher, dest = next((t, d) for t, d in sorted(transfer.items())
                         if d != redeploy.STAY)
    options = sorted(instance.teacher_by_id[teacher].acceptable - {dest})
    return {**transfer, teacher: options[0] if options else redeploy.STAY}


def test_tampered_solution_counts_as_failed(tmp_path):
    index = cheapest_audited_entry()
    doc, variant = workloads.make_doc(redeploy, "audit", index)
    instance = workloads.parse_doc(redeploy, doc, variant)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    op = workloads.deep_op(redeploy, index, instance, path, variant, None,
                           tmp_path)
    solution = tmp_path / "solution.json"

    def tampered_run():
        code = op.run()
        written = json.loads(solution.read_text())
        written["transfer"] = flip_one_destination(written["transfer"],
                                                   instance)
        solution.write_text(json.dumps(written))
        return code

    for runs, failed in ((op.run, 0), (tampered_run, 1)):
        loop = run.new_loop()
        run.timed_loop(loop, [dataclasses.replace(op, run=runs)], 0, 1)
        assert len(loop["failures"]) == failed

    # verify --solution rejects a tampered solution file
    audit, = workloads.prepare(redeploy, "audit", [index], tmp_path,
                               expects("audit"))
    assert run.run_op(audit)[1] is None
    given = tmp_path / f"audit-{index}.solution.json"
    written = json.loads(given.read_text())
    written["transfer"] = flip_one_destination(written["transfer"], instance)
    given.write_text(json.dumps(written))
    assert run.run_op(audit)[1] == "verify exit status 1"


def test_reference_mismatch_counts_as_failed(tmp_path):
    index = cheapest_audited_entry()
    wrong = expects("audit")
    teacher = sorted(wrong[index]["misreports_tested"])[0]
    wrong[index] = {**wrong[index], "misreports_tested": {teacher: 1}}
    audit, = workloads.prepare(redeploy, "audit", [index], tmp_path, wrong)
    assert "misreports_tested" in run.run_op(audit)[1]


def test_times_are_scaled_to_the_reference_machine_speed():
    loop = run.new_loop()
    loop["times"] = [0.1 * k for k in range(1, 22)]
    loop["timed_s"] = sum(loop["times"])
    loop["calibration"] = [2 * calibrate.REFERENCE_S] * 3
    metrics, raw, tail = run.end_to_end(loop, [0.4, 0.6, 0.8])
    assert raw["slowdown"] == 2
    assert raw["op_p50_s"] == pytest.approx(loop["times"][10])
    assert metrics["op_p50_s"] == raw["op_p50_s"] / 2
    # the quantile of the order statistic with ten samples beyond it
    assert metrics["op_tail_s"] == pytest.approx(loop["times"][10] / 2)
    assert metrics["ops_per_s"] == 2 * 21 / loop["timed_s"]
    assert metrics["setup_s"] == 0.3
    assert tail == {"percentile": 100 * 11 / 22, "samples": 21, "beyond": 10}
    assert calibrate.work() == calibrate.work()


def test_harrell_davis_estimates_the_quantile():
    assert run.harrell_davis([0.25] * 30, 0.5) == pytest.approx(0.25)
    symmetric = [1, 2, 4, 7, 10, 12, 13]
    assert run.harrell_davis(symmetric, 0.5) == pytest.approx(7)
    rng = random.Random(3)
    values = [rng.lognormvariate(0, 1) for _ in range(101)]
    shifted = [v + 4 for v in values]
    for p in (0.5, 0.9):
        assert run.harrell_davis(shifted, p) == \
            pytest.approx(run.harrell_davis(values, p) + 4)
    ranked = sorted(values)
    assert ranked[45] < run.harrell_davis(values, 0.5) < ranked[55]
    assert ranked[85] < run.harrell_davis(values, 0.9) < ranked[95]


def span(name, start, end, parent, op=0):
    return tracing.Span(name, start, end, parent, op)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        span("bench.solve", 0.0, 10.0, -1),
        span("rounding.solve", 1.0, 9.0, 0),
        span("egalitarian.decompose", 2.0, 6.0, 1),
        span("maxflow.max_flow", 2.5, 3.0, 2),
        span("maxflow.max_flow", 4.0, 5.5, 2),
        span("maxflow.max_flow_with_lower_bounds", 7.0, 8.0, 1),
        span("maxflow.max_flow", 7.25, 7.75, 5),
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 2.0, 0.5, 1.5, 0.5, 0.5]

    tracer = tracing.Tracer()
    tracer.spans = spans
    metrics = tracing.layer_metrics(tracer, [0])
    assert metrics["maxflow.self_s"] == 3.0
    assert metrics["egalitarian.self_s"] == 2.0
    assert metrics["rounding.self_s"] == 3.0
    assert metrics["maxflow.calls"] == 3  # the nested call is not counted
    assert metrics["maxflow.lb_calls"] == 1
    assert metrics["egalitarian.decompose_share"] == 0.4


def test_audit_sp_runs_no_flow_code(tmp_path):
    index = cheapest_audited_entry()
    ops = workloads.prepare(redeploy, "audit", [index], tmp_path,
                            expects("audit"))
    originals = (redeploy.maxflow.max_flow, redeploy.cli.select_transfer)
    tracer, _, failures = run.traced_pass(ops)
    assert failures == []
    assert (redeploy.maxflow.max_flow, redeploy.cli.select_transfer) \
        == originals
    audit_sp = tracing.layer_metrics(tracer, [0], "audit-sp")
    verify = tracing.layer_metrics(tracer, [0], "verify")
    assert audit_sp["maxflow.calls"] == 0
    assert audit_sp["mechanism.select_calls"] > 0
    assert audit_sp["mechanism.misreports_tested"] == sum(
        expects("audit")[index]["misreports_tested"].values())
    assert 0 < audit_sp["oracle.feasible_ratio"] <= 1
    assert verify["maxflow.calls"] > 0
    assert verify["game.worth_queries"] > 0
    assert verify["mechanism.select_calls"] == 0
    assert verify["oracle.enumerate_calls"] == 1


def test_circulation_units_count_the_flow_cancelled():
    instance = redeploy.validate({
        "surplus_schools": [{"id": "s1", "alpha": 1}, {"id": "s2", "alpha": 1}],
        "deficit_schools": [{"id": "d1", "beta": 1}],
        "teachers": [{"id": "t1", "origin": "s1", "acceptable": ["s2", "d1"]},
                     {"id": "t2", "origin": "s2", "acceptable": ["s1"]}]})
    network = redeploy.build_extended_network(instance)
    cycle = {("s1", "t1"): 1, ("t1", "s2"): 1, ("s2", "t2"): 1,
             ("t2", "s1"): 1}
    flow = redeploy.Flow(cycle, {"d1": 0}, 0)
    tracer = tracing.Tracer()
    with tracer, tracer.operation(0, "cancel"):
        redeploy.network.cancel_circulations(network, flow)
    assert tracing.layer_metrics(tracer, [0])[
        "network.circulation_units"] == 4


def test_tracer_skips_a_function_the_program_no_longer_has(monkeypatch):
    original = redeploy.maxflow.max_flow
    monkeypatch.delattr(redeploy.maxflow, "b_max_flow")
    with tracing.Tracer() as tracer:
        assert tracer.missing == ["redeploy.maxflow.b_max_flow"]
        assert redeploy.maxflow.max_flow is not original
    assert redeploy.maxflow.max_flow is original
