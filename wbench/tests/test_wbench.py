"""Tests of the benchmark's own helpers.

    python3 -m pytest -q wbench/tests
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import OpResult, digest, median, percentile, tally, use_checkout_sources  # noqa: E402
from tracer import Tracer, span_totals  # noqa: E402
from worker import run_ops  # noqa: E402
from workloads import Cli, Op, cli_commands, LEVELS  # noqa: E402


# -- percentile selection -----------------------------------------------------

def test_percentile_is_nearest_rank():
    xs = list(range(100, 0, -1))          # 1..100, unsorted
    assert percentile(xs, 50) == (50, 50)
    assert percentile(xs, 90) == (90, 10)
    assert percentile(xs, 100) == (100, 0)
    assert percentile([7.0], 90) == (7.0, 0)
    assert percentile([1, 2, 3], 50) == (2, 1)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p90_of_a_100_op_pass_has_ten_samples_beyond_it():
    assert percentile([0.001 * i for i in range(100)], 90)[1] == 10


def test_best_times_keeps_each_ops_fastest_pass_in_list_order():
    from run import RunError, best_times
    passes = [{"ops": [["a", 0.3, None], ["b", 0.1, None], ["c", 0.5, "x"]]},
              {"ops": [["a", 0.2, None], ["b", 0.4, None], ["c", 0.6, "x"]]}]
    assert list(best_times(passes).items()) == [("a", 0.2), ("b", 0.1),
                                               ("c", 0.5)]
    passes[1]["ops"].pop()
    with pytest.raises(RunError):
        best_times(passes)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


# -- self-time subtraction ------------------------------------------------------

def _spans(rows):
    names = sorted({r[0] for r in rows})
    ids = {n: i for i, n in enumerate(names)}
    return (names, [ids[r[0]] for r in rows], [r[1] for r in rows],
            [r[2] for r in rows], [r[3] for r in rows])


def test_self_time_subtracts_children_only():
    # outer [0,10] -> a [1,3], b [4,6] -> c [4.5,5]
    calls, self_s = span_totals(*_spans([
        ("outer", -1, 0.0, 10.0), ("a", 0, 1.0, 3.0), ("b", 0, 4.0, 6.0),
        ("c", 2, 4.5, 5.0)]))
    assert calls == {"outer": 1, "a": 1, "b": 1, "c": 1}
    assert self_s["outer"] == pytest.approx(6.0)
    assert self_s["b"] == pytest.approx(1.5)
    assert self_s["c"] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once():
    calls, self_s = span_totals(*_spans([
        ("p", -1, 0.0, 10.0), ("x", 0, 1.0, 4.0), ("x", 0, 2.0, 5.0),
        ("x", 0, 6.0, 7.0)]))
    assert calls["x"] == 3
    assert self_s["p"] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_nests_spans_and_sums_self_time_per_name():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1
    leaf_t = tr.span_wrapper("m.leaf", leaf)

    def outer():
        return leaf_t() + leaf_t()
    assert tr.span_wrapper("m.outer", outer)() == 2
    s = tr.summary()
    assert s["calls"] == {"m.outer": 1, "m.leaf": 2}
    # outer opens at 0, leaves span [1,2] and [3,4], outer closes at 5
    assert s["self_s"]["m.outer"] == pytest.approx(3.0)
    assert s["self_s"]["m.leaf"] == pytest.approx(2.0)
    assert list(tr.parent) == [-1, 0, 0]


# -- alias patching ---------------------------------------------------------------

@pytest.fixture
def walgebras():
    use_checkout_sources()
    import walgebras.cli  # noqa: F401  (imports every module)
    return sys.modules


def test_install_patches_every_alias_and_default(walgebras):
    wcl, cli, spva = (walgebras["walgebras." + m]
                      for m in ("wclassical", "cli", "spva"))
    orig_solve = wcl.solve_all_generators
    orig_smb = spva.susy_master_bracket
    tr = Tracer()
    tr.install()
    try:
        assert cli.solve_all_generators is wcl.solve_all_generators
        assert wcl.solve_all_generators.__wrapped__ is orig_solve
        assert spva.susy_jacobi_defect.__defaults__[0] is spva.susy_master_bracket
        assert spva.susy_master_bracket is not orig_smb
        assert not tr.missing
        from walgebras.catalog import get_algebra
        ctx = wcl.ReductionContext(get_algebra("sl2"))
        gens = cli.solve_all_generators(ctx)
        assert gens[0].weight == 2
    finally:
        tr.uninstall()
    assert wcl.solve_all_generators is orig_solve
    assert cli.solve_all_generators is orig_solve
    assert spva.susy_jacobi_defect.__defaults__[0] is orig_smb
    s = tr.summary()
    assert s["calls"]["wclassical.solve_all_generators"] == 1
    assert s["calls"]["wclassical.solve_generator"] == 1
    assert s["calls"]["scalars.solve_linear"] == 1
    assert s["stats"]["scalars.solve_linear.rows"] > 0
    assert s["counters"]["scalars.GRat.ops"] > 0


def test_renamed_target_is_reported_missing(walgebras, monkeypatch):
    brst = walgebras["walgebras.brst"]
    monkeypatch.delattr(brst, "check_thm_5_9")
    tr = Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["brst.check_thm_5_9"]


def test_counted_dunders_are_counted_not_timed(walgebras):
    from walgebras.scalars import Scalar
    tr = Tracer()
    tr.install()
    try:
        (Scalar.k() + Scalar.one()) * Scalar.k()
    finally:
        tr.uninstall()
    s = tr.summary()
    assert s["counters"]["scalars.Scalar.add.calls"] == 1
    assert s["counters"]["scalars.Scalar.mul.calls"] == 1
    assert "scalars.Scalar.__mul__" not in s["calls"]


# -- fail accounting --------------------------------------------------------------

def test_tally_counts_known_defects_as_failed_but_correct():
    res = [OpResult("a", 0.1), OpResult("b", 0.2, "raised IndexError: x"),
           OpResult("c", 0.3)]
    t = tally(res, {"b": "IndexError"})
    assert (t["attempted"], t["failed"], t["correct"]) == (3, 1, True)
    assert t["fail_ratio"] == pytest.approx(1 / 3)
    assert t["known_defect_failures"] == 1


def test_tally_flags_new_failures_and_known_defects_failing_differently():
    t = tally([OpResult("b", 0.2, "routes disagree")], {"b": "IndexError"})
    assert not t["correct"] and t["unexpected"] == [("b", "routes disagree")]
    t = tally([OpResult("z", 0.2, "exit 1: boom")], {"b": "IndexError"})
    assert not t["correct"] and t["failed"] == 1
    assert not tally([], {})["correct"]


def test_run_ops_times_checks_and_compares_digests():
    results = {}

    def boom():
        raise IndexError("list index out of range")
    ops = [Op("ok", lambda: "x", None, str),
           Op("raises", boom),
           Op("bad-check", lambda: 1, lambda v: "wrong value"),
           Op("drift", lambda: "y", None, str)]
    out = run_ops(ops, results, {"ok": digest("x"), "drift": digest("z")})
    fails = {r.name: r.failure for r in out}
    assert fails["ok"] is None
    assert fails["raises"].startswith("raised IndexError")
    assert fails["bad-check"] == "wrong value"
    assert "differs from frozen" in fails["drift"]
    assert results == {"ok": "x", "bad-check": 1, "drift": "y"}
    assert all(r.seconds >= 0 for r in out)


def test_calibrated_times_are_divided_by_the_slowness_around_the_call():
    import common
    now = [0.0]
    step = iter([2.0 * common.REF_SECONDS, 3.0,      # reference, call
                 4.0 * common.REF_SECONDS])         # reference after

    def clock():
        return now[0]

    def tick():
        now[0] += next(step)
    real = common.reference
    common.reference = tick
    try:
        op = Op("op", tick)
        (res,) = run_ops([op], {}, {}, clock=clock, calibrate=True)
    finally:
        common.reference = real
    assert res.seconds == pytest.approx(3.0 / 3.0)   # mean slowness (2+4)/2


def test_reference_is_fixed_work():
    import common
    assert common.reference() == common.reference()
    assert common.slowness() > 0


def test_cli_list_has_enough_commands_for_p90_and_no_repeats():
    for level in LEVELS:
        names = [n for n, _argv in cli_commands(level)]
        assert len(names) >= 100 and len(set(names)) == len(names)
        assert set(Cli().known_defects_for(level)) <= set(names)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    import json
    from run import END_TO_END, PER_LAYER
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(n, u) for n, u, _src in PER_LAYER]
    assert {w["name"] for w in bench["workloads"]} == {"construct", "axioms", "cli"}
