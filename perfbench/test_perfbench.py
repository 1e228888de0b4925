"""Self-tests for the benchmark's own helpers: inputs, oracles, spans, limits."""

import json
import sys
from pathlib import Path

import bench_inputs
import bench_trace
import run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from loopcomm.gradedalg import hilbert_function, is_complete_intersection, parse_presentation  # noqa: E402


def test_grassmannian_relations_of_gr2_c4():
    h3, h4 = bench_inputs.grassmannian_relations(2, 4)
    assert h3 == {(3, 0): -1, (1, 1): 2}
    assert h4 == {(4, 0): 1, (2, 1): -3, (0, 2): 1}


def test_grassmannian_relations_of_projective_space():
    # Gr_1(C^n) = CP^{n-1}: the single relation is (-c_1)^n
    for n in range(2, 7):
        assert bench_inputs.grassmannian_relations(1, n) == [{(n,): (-1) ** n}]


def test_gaussian_binomial_oracle():
    assert bench_inputs.gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert bench_inputs.grassmannian_hilbert(2, 4) == [1, 0, 1, 0, 2, 0, 1, 0, 1]
    for n, k, total in ((8, 2, 28), (10, 3, 120)):
        coeffs = bench_inputs.gaussian_binomial(n, k)
        assert sum(coeffs) == total  # the Euler characteristic, n choose k
        assert coeffs == coeffs[::-1]  # Poincare duality


def test_seeded_rescaling_keeps_the_hilbert_function():
    k, n = 2, 5
    texts = {bench_inputs.grassmannian_presentation(k, n, seed) for seed in range(6)}
    assert len(texts) > 1  # the seed does change the input
    for text in texts:
        pres = parse_presentation(text)
        assert list(hilbert_function(pres, 2 * k * (n - k))) == bench_inputs.grassmannian_hilbert(k, n)
        assert is_complete_intersection(pres)


def test_workload_inputs_depend_only_on_the_seed():
    for workload in bench_inputs.WORKLOADS:
        a = bench_inputs.WORKLOADS[workload](7)
        b = bench_inputs.WORKLOADS[workload](7)
        assert [(i.argv, i.files) for i in a] == [(i.argv, i.files) for i in b]


def test_verifiers_reject_wrong_outputs():
    check = bench_inputs.make_hilbert_check(2, 4)
    good = {"kind": "hilbert", "dimensions": [1, 0, 1, 0, 2, 0, 1, 0, 1], "complete_intersection": True}
    assert check(0, json.dumps(good)) is None
    assert check(1, json.dumps(good)) is not None
    assert check(0, json.dumps({**good, "dimensions": [1, 0, 1, 0, 1, 0, 1, 0, 1]})) is not None
    assert check(0, json.dumps({**good, "complete_intersection": False})) is not None
    assert check(0, "not json") is not None

    cert = bench_inputs.make_certificate_check("AI(16)", "Steenrod", {"operation": "Sq^2"})
    payload = {"kind": "certificate", "space": "AI(16)", "criterion": "Steenrod",
               "witness": [["operation", "Sq^2"]], "conclusion": "Omega(AI(16)) is not homotopy commutative"}
    assert cert(0, json.dumps(payload)) is None
    assert cert(0, json.dumps({**payload, "witness": [["operation", "Sq^4"]]})) is not None
    assert cert(2, json.dumps(payload)) is not None

    assert bench_inputs.verify_desk_report(0, json.dumps({"rows": []})) is not None


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, None, "outer", 0.0, 10.0),
        (1, 0, "a", 1.0, 3.0),
        (2, 0, "b", 2.0, 5.0),  # overlaps a: the union [1, 5] counts once
        (3, 0, "a", 8.0, 12.0),  # clipped to the parent's end
        (4, 1, "leaf", 1.5, 2.5),  # a grandchild is already inside its parent
    ]
    agg = bench_trace.self_times(spans)
    assert agg["outer"] == {"calls": 1, "incl_s": 10.0, "self_s": 4.0}
    assert agg["a"] == {"calls": 2, "incl_s": 6.0, "self_s": 5.0}
    assert agg["leaf"]["self_s"] == 1.0


def test_nested_time_counts_outermost_prefixed_spans_under_outer():
    spans = [
        (0, None, "catalog.route", 0.0, 10.0),
        (1, 0, "steenrod.total_op", 1.0, 4.0),
        (2, 1, "steenrod.tp_mul", 2.0, 3.0),  # inside another steenrod span
        (3, 0, "catalog.load", 4.0, 5.0),
        (4, 3, "steenrod.hook", 4.2, 4.7),  # under route through catalog.load
        (5, None, "steenrod.hook", 11.0, 12.0),  # not under route
    ]
    assert bench_trace.nested_time(spans, "catalog.route", "steenrod.") == 3.5


def test_times_are_scaled_by_the_median_calibration():
    outcomes = [run.Outcome(1.0, 0.5, 30.0, None, cal) for cal in (0.1, 0.2, 0.4)]
    unstarted = run.Outcome(0.0, 0.0, 0.0, "run time limit reached before start")  # never calibrated
    scale = run.speed_scale(outcomes + [unstarted])
    assert scale == run.CAL_REF_S / 0.2
    metrics = run.end_to_end([outcomes], outcomes, scale)
    assert metrics["batch_s"]["value"] == 3.0 * scale
    assert metrics["cpu_s"]["value"] == 1.5 * scale
    assert metrics["setup_s"]["value"] == scale
    assert metrics["peak_rss_mb"]["value"] == 30.0  # memory is not a time


def test_a_pass_cut_short_adds_samples_but_not_to_the_median_item():
    def o(wall):
        return run.Outcome(wall, wall, 1.0, None, run.CAL_REF_S)
    passes = [[o(1.0), o(4.0)], [o(3.0), o(6.0)], [o(2.0)]]  # the last pass ran out of time
    assert run.item_medians(passes, "wall_s") == [2.0, 5.0]
    metrics = run.end_to_end(passes, [o(0.1)])
    assert metrics["batch_s"]["value"] == 7.0
    assert metrics["item_p50_s"]["value"] == 3.5  # over the two whole passes
    assert metrics["item_max_s"]["value"] == 5.0


def test_item_time_limit_kills_the_process(tmp_path):
    cmd = [sys.executable, "-c", "import time; time.sleep(30)"]
    wall, _cpu, _rss, code, _out = run.run_process(cmd, tmp_path, 0.2)
    assert code is None
    assert wall < 5.0
