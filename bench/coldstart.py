"""Cold-start probes: fresh interpreter processes timed from outside, in reference seconds.

Run as a script (with the package's src directory on PYTHONPATH) it
times the first `page_constants()` call of a fresh process and prints
the seconds; the benchmark uses that for `setup.page_constants_s`.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

PROBE_TIMEOUT_S = 30

# the cold CLI request every user pays for, and its table without comments
SETUP_ARGV = ["-m", "bergerspec.cli", "sphere", "--dim", "3", "--kmax", "1"]
SETUP_TABLE = ["k,eigenvalue,multiplicity", "0,0,1", "1,3,4"]


class ProbeFailed(Exception):
    """A cold-start subprocess failed or printed something unexpected."""


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.pop("BERGERSPEC_PRECISION", None)
    # a cold start of an installed package reads cached bytecode, it does not compile
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(root: Path, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run the interpreter on `args`; its wall time in reference seconds (see hostspeed.py)."""
    before = hostspeed.kernel_s()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=root,
        env=_env(root),
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    elapsed = hostspeed.normalize(time.perf_counter() - start, before, hostspeed.kernel_s())
    if proc.returncode != 0:
        raise ProbeFailed(f"{args} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed, proc


class SetupProbe:
    """Cold `sphere --dim 3 --kmax 1` CLI processes, spread over a run.

    The machine slows down for seconds at a time; probes taken between the
    benchmark's rounds, rather than all at once, keep one slow stretch from
    setting the median.
    """

    def __init__(self, root: Path, repeats: int):
        self.root = root
        self.repeats = repeats
        self.samples: list[float] = []
        # the first run compiles the package's bytecode, which an installed copy already has
        _run(root, SETUP_ARGV)

    def run_due(self, fraction: float) -> None:
        """Take the probes due once `fraction` of the run is done."""
        while len(self.samples) < min(self.repeats, math.ceil(self.repeats * fraction)):
            elapsed, proc = _run(self.root, SETUP_ARGV)
            if [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")] != SETUP_TABLE:
                raise ProbeFailed(f"cold CLI printed {proc.stdout!r}")
            self.samples.append(elapsed)

    def median(self) -> float:
        self.run_due(1.0)
        return statistics.median(self.samples)


def interpreter_s(root: Path, repeats: int) -> float:
    """Median wall time of a bare interpreter doing nothing, in reference seconds."""
    return statistics.median(_run(root, ["-c", "pass"])[0] for _ in range(repeats))


def import_s(root: Path, repeats: int) -> float:
    """Median cumulative `-X importtime` of bergerspec.cli, in seconds."""
    samples = []
    for _ in range(repeats):
        _, proc = _run(root, ["-X", "importtime", "-c", "import bergerspec.cli"])
        # lines read "import time: self [us] | cumulative | name"
        line = next(ln for ln in proc.stderr.splitlines() if ln.rstrip().endswith("| bergerspec.cli"))
        samples.append(int(line.split("|")[1]) / 1e6)
    return statistics.median(samples)


def page_constants_s(root: Path, repeats: int) -> float:
    """Median time of the first page_constants() call in a fresh process."""
    script = str(Path(__file__).resolve())
    return statistics.median(float(_run(root, [script])[1].stdout) for _ in range(repeats))


if __name__ == "__main__":
    from bergerspec.page import page_constants

    start = time.perf_counter()
    page_constants()
    print(time.perf_counter() - start)
