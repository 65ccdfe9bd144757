"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nccorr  # noqa: E402
from nccorr import measures, states  # noqa: E402

import calib  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------------- tail


def test_tail_has_exactly_ten_samples_beyond_it():
    xs = list(range(1, 101))
    random.Random(0).shuffle(xs)
    value, pct, n = stats.tail(xs)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in xs) == stats.TAIL_MIN_BEYOND


def test_tail_is_the_highest_such_percentile():
    # 11 samples: only the smallest has ten beyond it
    value, pct, n = stats.tail([5.0] + [9.0] * 10)
    assert (value, n) == (5.0, 11)
    assert pct == pytest.approx(100.0 / 11)
    # 1000 samples: p99
    value, pct, _ = stats.tail([float(i) for i in range(1000)])
    assert (value, pct) == (989.0, 99.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


# ------------------------------------------------------------- self time


def _span(name, start, end, parent, op=0):
    return spans.Span(name, start, end, parent, op)


def test_self_time_subtracts_only_direct_children():
    tree = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    tree = [_span("op", 0.0, 10.0, -1), _span("a", 1.0, 4.0, 0), _span("b", 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_tracer_records_parents_ops_and_errors():
    tracer = spans.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap("qmat.leaf", leaf)
    traced_mid = tracer.wrap("measures.mid", lambda x: traced_leaf(x) + traced_leaf(x))
    with tracer.op_span(7):
        assert traced_mid(2) == 4
    with pytest.raises(ValueError):
        with tracer.op_span(8):
            traced_mid(-1)
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names[:4] == [("op", -1, 7), ("measures.mid", 0, 7), ("qmat.leaf", 1, 7), ("qmat.leaf", 1, 7)]
    assert names[4:] == [("op", -1, 8), ("measures.mid", 4, 8), ("qmat.leaf", 5, 8)]
    assert tracer.errors == {"qmat": 1, "measures": 1}
    assert all(s.end >= s.start for s in tracer.spans)


def test_instrumented_changes_no_result_and_restores_the_library():
    rho = states.random_density_matrix((2, 2, 2), 8, 5)
    original = measures.measure_K
    before = (measures.measure_K(rho).value, measures.negativity(rho).value)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert measures.measure_K is not original
        during = (measures.measure_K(rho).value, measures.negativity(rho).value)
    assert measures.measure_K is original
    assert repr(before) == repr(during)
    names = {s.name for s in tracer.spans}
    assert {"measures.K", "measures.N", "qmat.herm_eig", "qmat.partial_transpose"} <= names
    metrics = spans.per_layer_metrics(tracer, 0.0)
    assert set(metrics) == set(spans.PER_LAYER)
    assert metrics["search.min_diag_entropy.self_s"] == 0.0
    assert metrics["qmat.herm_eig.calls"] == sum(s.name == "qmat.herm_eig" for s in tracer.spans)


# ---------------------------------------------------- failures and attempts


class _FakeWorkload:
    cycle = 4

    def op(self, i):
        if i == 1:
            raise RuntimeError("op raised")
        return i

    def values(self, i, raw):
        if raw == 2:
            raise KeyError("unreadable")
        return {"x": raw}

    def check(self, i, vals):
        return ["wrong"] if vals["x"] == 3 else []


def test_every_kind_of_failure_counts_against_attempts():
    lat, results, _, kernel_s = run.closed_loop(_FakeWorkload(), range(6))
    assert len(lat) == len(results) == 6
    assert kernel_s == []
    vals, failed = run.evaluate(_FakeWorkload(), results)
    assert failed == 3  # raised, unreadable result, failed check
    assert [vals[i] is None for i in range(6)] == [False, True, True, True, False, False]
    assert stats.failed_ratio(failed, len(results)) == 0.5


def test_closed_loop_times_the_kernel_after_every_op():
    class Kernel:
        def run(self):
            return 0.5

    lat, results, _, kernel_s = run.closed_loop(_FakeWorkload(), range(6), kernel=Kernel())
    assert kernel_s == [0.5] * 6


def test_speed_factors_are_windowed_medians_over_the_reference():
    ref = calib.REFERENCE_S
    kernel_s = [ref, ref, 9 * ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    factors = calib.speed_factors(kernel_s, window=1)
    slow = 2.0**calib.TRACKING
    # one slow pass is outvoted by its neighbours; a lasting slowdown is not
    assert factors[2] == 1.0
    assert factors[6:] == pytest.approx([slow] * 3)
    assert calib.scaled([4.0] * 9, kernel_s)[-1] == pytest.approx(4.0 / slow)


def test_op_count_is_whole_cycles_of_at_least_min_ops():
    class Slow(_FakeWorkload):
        expected_op_s = 10.0

    class Fast(_FakeWorkload):
        expected_op_s = 0.01

    assert run.op_count(Slow, 1) == run.MIN_OPS
    assert run.op_count(Fast, 30) == 3000
    assert run.op_count(Fast, 30.03) % Fast.cycle == 0


def test_failed_ratio_rejects_impossible_counts():
    with pytest.raises(ValueError):
        stats.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.failed_ratio(3, 2)


# --------------------------------------------------------------- references


def test_reference_k_and_n_vanish_on_ppt_horodecki():
    rho = states.make_horodecki(0.5)
    k, n = reference.k_and_n(rho.mat, rho.dims)
    assert abs(k) <= 1e-9 and abs(n) <= 1e-9


def test_reference_k_and_n_on_npt_ps_state():
    rho = states.make_pseudo_entangled(1.0)
    k, n = reference.k_and_n(rho.mat, rho.dims)
    assert k == pytest.approx(2.0, abs=1e-12)
    assert n == pytest.approx(0.5, abs=1e-12)


def test_reference_d_g_on_ps_matches_closed_form():
    rho = states.make_pseudo_entangled(0.6)
    assert reference.d_g(rho.mat, rho.dims) == pytest.approx(
        nccorr.verify._ps_closed_forms(0.6)["DG"], abs=1e-12
    )


def test_checks_flag_wrong_values():
    rho = states.random_density_matrix((2, 2, 2), 8, 9)
    vals = {
        "G": measures.measure_G(rho).value,
        "DG": measures.measure_DG(rho).value,
        "K": measures.measure_K(rho).value,
        "N": measures.negativity(rho).value,
    }
    assert reference.check_random_state(rho.mat, rho.dims, vals) == []
    assert reference.check_random_state(rho.mat, rho.dims, dict(vals, K=vals["K"] + 1e-6))
    assert reference.check_random_state(rho.mat, rho.dims, dict(vals, D=vals["DG"] + 1e-6))
    assert reference.check_random_state(rho.mat, rho.dims, dict(vals, G=math.log2(2) + 1e-6))
    ps = dict(nccorr.verify._ps_closed_forms(0.3))
    assert reference.check_family_point("ps", 0.3, ps) == []
    assert reference.check_family_point("ps", 0.3, dict(ps, N=ps["N"] + 1e-8))
    assert reference.check_family_point("horodecki", 0.5, {"D": 0.1, "DG": 0.05, "K": 0.0, "N": 0.0})


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
