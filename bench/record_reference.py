"""Record reference.json: the exact-column digest of every request any seed can send.

    python3 bench/record_reference.py

Each request of the workloads' finite universe (workloads.universe) is run
once through the CLI; its output must pass every independent oracle in
oracle.py before its digest is stored.  The Page transition roots are
recorded to bisection resolution for the --roots and index-row checks.
Re-record only when the workloads change, never to make a check pass.
"""

from __future__ import annotations

import json
import sys

import run  # puts the package source on sys.path
from bergerspec.page import page_transition_roots

import oracle
import workloads


def record() -> dict:
    reference = {"page_roots": list(page_transition_roots(1e-15)), "digests": {}}
    for name in workloads.WORKLOADS:
        candidates = workloads.universe(name)
        for n, argv in enumerate(candidates):
            slot = run.Slot(argv)
            run.run_round([slot])
            if oracle.has_exact_columns(argv):
                reference["digests"][workloads.request_key(argv)] = oracle.exact_digest(slot.text)
            oracle.check(argv, slot.code, slot.text, reference)
            if n % 50 == 0:
                print(f"{name}: {n + 1}/{len(candidates)}", file=sys.stderr, flush=True)
    return reference


if __name__ == "__main__":
    run.REFERENCE.write_text(json.dumps(record(), indent=0, sort_keys=True) + "\n")
