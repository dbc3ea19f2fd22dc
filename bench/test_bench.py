"""Tests of the benchmark itself: generator, oracle, tracer.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
from fractions import Fraction

import pytest

import run  # puts the package source on sys.path
import oracle
import tracing
import workloads

# one cheap request of every kind the oracle knows, all in the recorded universe
CHEAP = [
    ["piecewise", "--index", "8", "--xmax", "1/23"],
    ["piecewise", "--slot", "5", "--xmax", "15"],
    ["berger", "--t", "2", "--count", "300", "--with-multiplicity"],
    ["berger", "--epsilon", "1.3", "--count", "500"],
    ["sphere", "--dim", "4", "--kmax", "60"],
    ["index", "cp2", "--r", "3.981"],
    ["index", "page", "--r", "1.5"],
    ["index", "page", "--scan", "0.8", "2.1", "40"],
    ["index", "page", "--roots", "--tol", "1e-3"],
    ["plotdata", "fig1"],
    ["plotdata", "fig2"],
    ["plotdata", "fig3"],
]


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


@pytest.fixture(scope="module")
def cheap_slots():
    slots = [run.Slot(argv) for argv in CHEAP]
    run.run_round(slots)
    return slots


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_requests_are_distinct_and_recorded(workload, reference):
    universe = {workloads.request_key(a) for a in workloads.universe(workload)}
    for seed in range(20):
        keys = [workloads.request_key(a) for a in workloads.generate(workload, seed)]
        assert len(set(keys)) == len(keys)
        assert set(keys) <= universe
        for argv in workloads.generate(workload, seed):
            if oracle.has_exact_columns(argv):
                assert workloads.request_key(argv) in reference["digests"]


def test_piecewise_pairs_are_distinct():
    for seed in range(20):
        pairs = [
            (a[2], Fraction(a[4]))
            for a in workloads.generate("piecewise", seed)
            if a[1] == "--index"
        ]
        assert len(set(pairs)) == len(pairs)


def test_oracle_accepts_every_kind(cheap_slots, reference):
    assert {oracle.request_kind(a) for a in CHEAP} == {
        "piecewise-index", "piecewise-slot", "berger", "sphere", "index-cp2", "index-page",
        "index-roots", "plotdata-fig1", "plotdata-fig2", "plotdata-fig3",
    }
    for slot in cheap_slots:
        oracle.check(slot.argv, slot.code, slot.text, reference)


def test_oracle_rejects_the_corrupted_control(cheap_slots, reference):
    for slot in cheap_slots:
        with pytest.raises(oracle.CheckFailed):
            oracle.check(slot.argv, slot.code, oracle.corrupt(slot.text), reference)


def test_oracle_rejects_a_nonzero_exit(cheap_slots, reference):
    slot = cheap_slots[0]
    with pytest.raises(oracle.CheckFailed):
        oracle.check(slot.argv, 2, slot.text, reference)


def test_check_outputs_counts_a_corrupted_round_as_failed(cheap_slots):
    good = run.Slot(CHEAP[0], cheap_slots[0].text, 0, rounds=3)
    bad = run.Slot(CHEAP[4], oracle.corrupt(cheap_slots[4].text), 0, rounds=3)
    failed, rejected, controls, _ = run.check_outputs([good, bad])
    assert failed == 3
    assert rejected == controls == 1


def _bindings():
    return [
        getattr(importlib.import_module(f"bergerspec.{module}"), attr)
        for module, attr, _, _ in tracing.BINDINGS
    ]


def test_traced_spans_nest_and_self_times_fit_in_parents():
    tracer = tracing.Tracer()
    slots = [run.Slot(argv) for argv in CHEAP[:9]]
    with tracing.installed(tracer):
        run.run_round(slots, tracer)
    own = tracer.self_times()
    assert {s.request for s in tracer.spans} == set(range(len(slots)))
    for span, self_s in zip(tracer.spans, own):
        assert span.start <= span.end
        assert self_s >= -1e-9
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert self_s <= parent.end - parent.start
            assert parent.request == span.request
        else:
            assert span.name == "cli.main"
    summary = tracer.summary()
    assert summary["cli.main.calls"] == len(slots)
    assert summary["berger.kth_distinct_piecewise.calls"] == 1
    assert summary["page.page_transition_roots.calls"] == 3
    assert summary["spheres.calls"] == 1


def test_wrapped_functions_are_restored():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert all(a is not b for a, b in zip(_bindings(), before))
            raise RuntimeError("leave the block early")
    assert all(a is b for a, b in zip(_bindings(), before))


def test_rounds_start_with_empty_package_caches():
    run.run_round([run.Slot(CHEAP[0])])
    run.clear_caches()
    for module in tracing.LAYERS:
        for value in vars(importlib.import_module(f"bergerspec.{module}")).values():
            if hasattr(value, "cache_info"):
                assert value.cache_info().currsize == 0
