"""Shared pieces of the benchmark: checkout paths, the child environment,
order statistics, the host-speed probe, and the per-operation check tally.

Nothing here imports numpy or nedmsim, so a set-up trial, whose clock
starts before the workload modules are imported, covers both imports.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One process generates all load; ensembles and CLI children never ask for
# more threads than the machine has cores, capped at two.
WORKERS = min(2, os.cpu_count() or 1)

PINNED_ENV = {
    "NEDMSIM_THREADS": str(WORKERS),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
}

# A child interpreter that takes longer than this has hung; normal calls
# take about 2 s.
CHILD_TIMEOUT_S = 60

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def child_env() -> dict:
    """Environment for child interpreters: the package under test by its
    absolute path (a relative ``PYTHONPATH`` would not resolve from the
    child's working directory), thread counts pinned, and bytecode caching
    on, as for a user, whatever the calling environment says."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def median(values) -> float:
    return float(statistics.median(values))


def trimmed_mean(values, cut: float = 0.2) -> float:
    """Mean of the values left after dropping ``cut`` of them at each end."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return float(statistics.fmean(ordered[k:len(ordered) - k]))


def tail(values) -> dict | None:
    """Highest ladder percentile with at least ten samples beyond it.

    Nearest-rank value; ``None`` when fewer than twenty samples exist,
    because no percentile at or above the median then has ten beyond it.
    """
    n = len(values)
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            rank = max(1, math.ceil(pct / 100.0 * n))
            return {"value": ordered[rank - 1], "percentile": pct, "samples": n}
    return None


# Other tenants of the host slow this machine's cores by up to a half for
# minutes at a time. A fixed pure-Python loop slows with them: over 25 s
# windows of alternating probes and fits, the two medians correlated at
# 0.99, and the windows' spread (IQR over median) fell from 0.41 for raw
# fit times to 0.09 for their ratio to the probe. Timed figures are
# therefore scaled to a reference speed, the one at which the probe takes
# REFERENCE_PROBE_S. Probe times jump between a fast and a slow level
# from one sample to the next, and a median jumps with them, so the
# probe's typical time, like an op's, is a trimmed mean.
PROBE_ITERATIONS = 150_000
REFERENCE_PROBE_S = 0.010


class HostSpeed:
    """Probe samples taken between timed operations, never inside them."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            acc = 0
            for i in range(PROBE_ITERATIONS):
                acc += i * i
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor that turns a time measured here into reference seconds."""
        return REFERENCE_PROBE_S / trimmed_mean(self.samples)


class Tally:
    """Distinct operations attempted and the ones whose output failed a check.

    A run repeats its operations as often as its time allows, so each one is
    counted once, under its key, at its first occurrence: ``attempted`` and
    ``failed`` then depend on the seed only, not on how fast the machine
    was. A repeat must reach the same verdict as the first occurrence;
    ``mismatches`` counts the ones that did not.
    """

    def __init__(self) -> None:
        self.verdicts: dict[str, tuple[str, ...]] = {}
        self.failures: dict[str, int] = {}
        self.mismatches = 0

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(1 for bad in self.verdicts.values() if bad)

    def op(self, kind: str, checks: dict[str, bool], item: str = "") -> None:
        bad = tuple(name for name, ok in checks.items() if not ok)
        key = f"{kind}{item}"
        if key in self.verdicts:
            self.mismatches += self.verdicts[key] != bad
            return
        self.verdicts[key] = bad
        for name in bad:
            failure = f"{kind}:{name}"
            self.failures[failure] = self.failures.get(failure, 0) + 1


class Outputs:
    """Digest of every distinct output, and a determinism check on repeats.

    Workloads repeat identical inputs, so an output key seen before must
    come back with the same bytes; ``mismatches`` counts the ones that did
    not.
    """

    def __init__(self) -> None:
        self.first: dict[str, str] = {}
        self.mismatches = 0

    def record(self, key: str, blob: bytes) -> None:
        digest = hashlib.sha256(blob).hexdigest()
        seen = self.first.setdefault(key, digest)
        if seen != digest:
            self.mismatches += 1

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.first):
            h.update(f"{key}={self.first[key]}\n".encode())
        return h.hexdigest()
