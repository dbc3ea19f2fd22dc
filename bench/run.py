"""The bergerspec benchmark: seeded closed-loop workloads through the CLI.

    python3 bench/run.py --workload piecewise|index|spectrum --seed N --seconds S --trace 0|1

It benchmarks the package source in ../src.  One client sends the round's
request list to `bergerspec.cli.main(argv)` in process, each request after
the previous one returned, and repeats the round (with the package's
caches cleared, so no round is answered from an earlier one) until
another round would run past --seconds.  A first warm-up round is checked
but not timed.  The seed picks the requests (see workloads.py); any other
seed gives an independent request list of the same shape, for confirming
a claim on inputs it was not tuned on.

The machine this was built on (2 shared cores) runs up to 1.7x slower
for stretches from under a second to minutes.  So every request is timed
between two runs of a fixed calibration kernel and its time is reported in
reference seconds (see hostspeed.py), which removes the slow stretches
longer than a request; each request's latency is then the median of its
normalized times over the rounds, which removes the shorter ones.  The
report also prints wall_s in raw seconds.

--trace 0 reports the end-to-end metrics:
  wall_s          time to finish the round's request list: the sum of the
                  request latencies (all times in reference seconds)
  latency_p50_s   median request latency
  latency_tail_s  the highest percentile of request latency with at least
                  ten requests beyond it (percentile and sample count are
                  printed with it)
  peak_rss_mb     peak resident memory of this process after the rounds
  setup_s         median wall time of a cold
                  `python -m bergerspec.cli sphere --dim 3 --kmax 1`,
                  probed between rounds, normalized like the requests
and prints fail_ratio = failed / attempted in its report.

--trace 1 alternates untraced and traced rounds and reports per-layer
calls, self time and counters (see tracing.py; the fastest traced round
per value, in raw seconds), the cold-start split (setup.*), and the
tracing overhead (traced minus untraced wall_s, in reference seconds); the spans of the first traced round are
written to .bench_out/ at exit.

Every output is checked against oracle.py outside the timed region; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

if not (SRC / "bergerspec" / "cli.py").is_file():
    sys.exit(f"bench: no bergerspec source under {SRC}")
sys.path.insert(0, str(SRC))

import coldstart  # noqa: E402  (these import bergerspec from SRC)
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from bergerspec import cli  # noqa: E402
from tracing import LAYERS, Tracer, installed  # noqa: E402

SETUP_REPEATS = 25
SETUP_LAYER_REPEATS = 7
TAIL_BEYOND = 10  # requests a tail percentile must leave above it


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh process would have."""
    for name in LAYERS:
        for value in vars(importlib.import_module(f"bergerspec.{name}")).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@dataclass
class Slot:
    """One position of the round's request list, across rounds."""

    argv: list[str]
    text: str | None = None  # output of the first round
    code: int | None = None  # exit code of the first round
    latencies: list[float] = field(default_factory=list)  # untraced rounds, reference seconds
    raw_latencies: list[float] = field(default_factory=list)  # the same, in raw seconds
    traced_latencies: list[float] = field(default_factory=list)
    bad_rounds: int = 0  # raised, nonzero exit, or output differing from the first round
    rounds: int = 0
    error: str = ""


def run_round(slots: list[Slot], tracer: Tracer | None = None, timed: bool = True) -> None:
    """Send every request once, in order, timing each between two calibration kernels."""
    clear_caches()
    gc.collect()
    texts: list[str] = []
    codes: list[int | None] = []
    kernel = hostspeed.kernel_s()
    for j, slot in enumerate(slots):
        if tracer is not None:
            tracer.request = j
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(slot.argv))
        except Exception as exc:  # a request that raises is a failed request; the round goes on
            code = None
            err.write(repr(exc))
        elapsed = time.perf_counter() - t0
        before, kernel = kernel, hostspeed.kernel_s()
        if timed:
            normalized = hostspeed.normalize(elapsed, before, kernel)
            if tracer is None:
                slot.latencies.append(normalized)
                slot.raw_latencies.append(elapsed)
            else:
                slot.traced_latencies.append(normalized)
        texts.append(out.getvalue())
        codes.append(code)
        if code != 0 and not slot.error:
            slot.error = f"exit {code}: {err.getvalue().strip()[:300]}"
    for slot, text, code in zip(slots, texts, codes):
        if slot.rounds == 0:
            slot.text, slot.code = text, code
        slot.rounds += 1
        if code != 0 or text != slot.text:
            slot.bad_rounds += 1
            slot.error = slot.error or "output differs from the first round"


def measure(
    slots: list[Slot], seconds: float, traced: bool, between: Callable[[float], None] | None = None
) -> list[Tracer]:
    """A warm-up round, then rounds until another one would pass `seconds`.

    The first round of a process runs slower (the heap grows, the
    interpreter specializes), so its outputs are checked but it is not
    timed.  When traced, traced rounds alternate with untraced ones and
    their tracers are returned.  `between` runs after every round with
    the share of `seconds` used so far.
    """
    tracers = []
    start = time.perf_counter()
    run_round(slots, timed=False)
    while True:
        step_start = time.perf_counter()
        run_round(slots)
        if traced:
            tracer = Tracer()
            with installed(tracer):
                run_round(slots, tracer)
            tracers.append(tracer)
        step = time.perf_counter() - step_start
        if between is not None:
            between((time.perf_counter() - start) / seconds)
        if time.perf_counter() - start + step > seconds:
            return tracers


def check_outputs(slots: list[Slot]) -> tuple[int, int, int, list[str]]:
    """Oracle verdicts: (failed requests, controls rejected, controls run, messages).

    A request whose first-round output the oracle rejects failed in every
    round; otherwise it failed in the rounds that raised, exited nonzero or
    printed something else.
    """
    reference = json.loads(REFERENCE.read_text())
    failed = 0
    messages = []
    controls: dict[str, Slot] = {}
    for slot in slots:
        try:
            oracle.check(slot.argv, slot.code, slot.text, reference)
        except Exception as exc:  # the oracle judges untrusted output; any crash is a rejection
            failed += slot.rounds
            messages.append(f"FAILED {' '.join(slot.argv)}: {slot.error or type(exc).__name__}: {exc}")
            continue
        controls.setdefault(oracle.request_kind(slot.argv), slot)
        if slot.bad_rounds:
            failed += slot.bad_rounds
            messages.append(f"FAILED {' '.join(slot.argv)} in {slot.bad_rounds} rounds: {slot.error}")
    rejected = 0
    for slot in controls.values():
        try:
            oracle.check(slot.argv, slot.code, oracle.corrupt(slot.text), reference)
        except Exception:  # any rejection of the corrupted copy is the expected outcome
            rejected += 1
        else:
            messages.append(f"CONTROL NOT REJECTED {' '.join(slot.argv)}")
    return failed, rejected, len(controls), messages


def latency_stats(latencies: list[float]) -> tuple[float, float, float, int]:
    """(p50, tail, tail percentile, samples) of the request latencies."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return statistics.median(ordered), ordered[rank], 100.0 * (rank + 1) / n, n


def layer_metrics(tracers: list[Tracer], slots: list[Slot]) -> dict[str, float]:
    """Per-layer metrics, each the smallest over the traced rounds.

    Counts are the same in every round; times take the least disturbed one.
    """
    summaries = [t.summary() for t in tracers]
    keys = set().union(*summaries)
    metrics = {k: min(s.get(k, 0.0) for s in summaries) for k in keys}
    first = tracers[0]
    # slice_spectrum calls per emitted index row, over the index requests only
    index_slots = {j for j, s in enumerate(slots) if s.argv[0] == "index" and "--roots" not in s.argv}
    rows = sum(_data_rows(slots[j].text) for j in index_slots)
    calls = sum(1 for s in first.spans if s.name == "slices.slice_spectrum" and s.request in index_slots)
    metrics["slices.slice_spectrum.calls_per_row"] = calls / rows if rows else 0.0
    roots = metrics.get("page.page_transition_roots.calls", 0.0)
    evals = metrics.get("page.page_shifted_lambda1.calls", 0.0)
    metrics["page.page_shifted_lambda1.evals"] = evals / roots if roots else 0.0
    metrics["cli.emit.bytes"] = float(sum(len(s.text.encode()) for s in slots))
    metrics["trace.spans"] = float(len(first.spans))
    return metrics


def _data_rows(text: str) -> int:
    return sum(1 for ln in text.splitlines() if ln and not ln.startswith("#")) - 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop(cli.PRECISION_ENV, None)
    requests = workloads.generate(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  {len(requests)} requests per round  "
          f"argv digest {workloads.argv_digest(requests)}")

    metrics: dict[str, float] = {}
    if args.trace:
        metrics["setup.interpreter_s"] = coldstart.interpreter_s(ROOT, SETUP_LAYER_REPEATS)
        metrics["setup.import_s"] = coldstart.import_s(ROOT, SETUP_LAYER_REPEATS)
        metrics["setup.page_constants_s"] = coldstart.page_constants_s(ROOT, SETUP_LAYER_REPEATS)
    else:
        probe = coldstart.SetupProbe(ROOT, SETUP_REPEATS)

    slots = [Slot(r) for r in requests]
    tracers = measure(slots, args.seconds, bool(args.trace), None if args.trace else probe.run_due)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [statistics.median(s.latencies) for s in slots]
    wall = sum(latencies)

    failed, rejected, controls, messages = check_outputs(slots)
    attempted = sum(s.rounds for s in slots)
    for m in messages:
        print(m)
    rounds = len(slots[0].latencies)
    print(f"{rounds} timed rounds, {len(tracers)} traced;  "
          f"fail_ratio {failed / attempted:.4g} ({failed} of {attempted} requests);  "
          f"negative control: {rejected} of {controls} corrupted outputs rejected")

    if args.trace:
        metrics.update(layer_metrics(tracers, slots))
        traced_wall = sum(statistics.median(s.traced_latencies) for s in slots)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.overhead_s"] = traced_wall - wall
        _print_layer_shares(metrics)
        _write_trace(args, requests, tracers[0], metrics)
    else:
        p50, tail, pct, n = latency_stats(latencies)
        metrics["wall_s"] = wall
        metrics["latency_p50_s"] = p50
        metrics["latency_tail_s"] = tail
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["setup_s"] = probe.median()
        raw_wall = sum(statistics.median(s.raw_latencies) for s in slots)
        print(f"latency_tail_s is p{pct:.1f} of {n} request latencies, each the median of {rounds} rounds; "
              f"wall_s is {raw_wall:.4f} raw seconds")

    # every declared metric is reported; a layer the workload never calls reads 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    for name, v in result.items():
        print(f"  {name:45s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": failed == 0 and rejected == controls,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


def _print_layer_shares(layers: dict[str, float]) -> None:
    total = sum(layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    parts = []
    for layer in LAYERS:
        share = layers.get(f"{layer}.self_s", 0.0) / total
        parts.append(f"{layer} {100 * share:.1f}% ({int(layers.get(f'{layer}.calls', 0))} calls)")
    print("share of traced self time: " + ", ".join(parts))


def _write_trace(args, requests: list[list[str]], tracer: Tracer, metrics: dict[str, float]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": requests,
        "per_layer": dict(sorted(metrics.items())),
        "spans": tracer.to_json(),
    }
    path.write_text(json.dumps(payload))
    print(f"spans of the first traced round written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
