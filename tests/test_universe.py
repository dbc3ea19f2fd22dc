"""One pass over the benchmark's request universe, read by three checks.

The pass follows ROADMAP item 12's convention: in process through
`cli.main`, with BERGERSPEC_PRECISION unset, every request of
`workloads.universe(w)`, for w in `workloads.WORKLOADS` order, as it is,
then with --precision 17, then with --format json: 601 requests, 1,803
runs.  The md5 of those runs pins every output byte, each plain run must
pass the benchmark oracle, and each JSON run must agree with its CSV.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from bergerspec import cli
from oracles import BENCH, json_problem, oracle

import workloads  # from BENCH, which importing oracles puts on sys.path

# md5 over f"{code}\0{stdout}\0{stderr}" of every run, in order.  A change
# that alters output on purpose re-pins it here and says why in CHANGES.md.
PINNED_MD5 = "e2c3f0f9725563e0e0f3310afa2f13f5"

VARIANTS = ((), ("--precision", "17"), ("--format", "json"))
SHOWN = 10  # failures printed in full; the rest are counted


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # recorded, so each check names the request that raised
        code = f"raised {exc!r}"
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def universe():
    """[(argv, ((code, stdout, stderr) of each variant))], each run made once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(cli.PRECISION_ENV, raising=False)
        return [
            (argv, tuple(_run([*argv, *extra]) for extra in VARIANTS))
            for w in workloads.WORKLOADS
            for argv in workloads.universe(w)
        ]


def _report(failures, total):
    shown = "\n".join(f"FAILED {' '.join(argv)}: {problem}" for argv, problem in failures[:SHOWN])
    more = len(failures) - SHOWN
    return f"{len(failures)} of {total} requests failed\n{shown}" + (f"\n... and {more} more" if more > 0 else "")


def test_output_of_every_universe_run_hashes_to_the_pin(universe):
    digest = hashlib.md5()
    for _, runs in universe:
        for code, out, err in runs:
            digest.update(f"{code}\0{out}\0{err}".encode())
    runs = sum(len(r) for _, r in universe)
    assert digest.hexdigest() == PINNED_MD5, (
        f"{runs} runs hash to md5 {digest.hexdigest()}, pinned {PINNED_MD5}. If the output "
        f"changed on purpose, re-pin PINNED_MD5 in {Path(__file__).name} and say why in CHANGES.md."
    )


def test_every_plain_run_passes_the_benchmark_oracle(universe):
    reference = json.loads((BENCH / "reference.json").read_text())
    failures = []
    for argv, ((code, out, err), *_) in universe:
        try:
            oracle.check(argv, code, out, reference)
        except Exception as exc:  # the oracle judges untrusted output; any crash is a rejection
            failures.append((argv, f"{type(exc).__name__}: {exc}" + (f" ({err.strip()[:300]})" if err else "")))
    assert not failures, _report(failures, len(universe))


def test_every_json_run_agrees_with_its_csv(universe):
    failures = []
    for argv, (plain, _, as_json) in universe:
        problem = json_problem(plain, as_json)
        if problem is not None:
            failures.append((argv, problem))
    assert not failures, _report(failures, len(universe))
