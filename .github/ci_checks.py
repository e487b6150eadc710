"""The CI's two large runs of the CLI and its benchmark runs, each checked.

    python .github/ci_checks.py scan       # a 2^20-point scan against its oracle
    python .github/ci_checks.py campaign   # a 2^18-cycle campaign recovers its dipole
    python .github/ci_checks.py bench W    # benchmark workload W passes every check

The first two run ``python -m nedmsim`` in the working directory, where
they leave their outputs; ``bench`` runs ``bench/run.py`` and leaves its
output in ``bench.out``. Each prints one line of results and exits 1 if a
bound or a check is broken; a run that fails is reported by its exit code
alone, before any of its outputs is read.
"""

import csv
import json
import resource
import subprocess
import sys
import time
from functools import partial


def _run(argv: list[str]) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one ``nedmsim`` run."""
    start = time.perf_counter()
    code = subprocess.run(["timeout", "300", sys.executable, "-m", "nedmsim", *argv]).returncode
    wall = time.perf_counter() - start
    return code, wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _failed(code: int, what: str) -> bool:
    """Print a failed run's exit code in one line; True if the run failed."""
    if code != 0:
        print(f"exit {code}: {what} failed, its outputs were not read")
    return code != 0


def scan() -> bool:
    """The largest scan the CLI accepts fits in 160 MB and agrees with its oracle.

    The oracle groups its points by rung, evaluates them in chunks of a few
    MB and caches one rung's nodes. Here xi*delta is at most 10, and every
    abs_diff must be within the oracle's documented 1e-10. Written a line
    at a time from its columns, the table peaks at 80 MB on a 2-CPU host;
    the campaign's 160 MB bound refuses the 296 MB it took while its whole
    text was built before the write.
    """
    code, wall, rss = _run(["scan", "--dn", "3e-22", "--delta", "1e-21", "--xi-min", "1e19",
                            "--xi-max", "1e22", "--points", "1048576", "--log",
                            "--out", "scan.csv"])
    if _failed(code, "nedmsim scan"):
        return False
    with open("scan.csv", newline="") as handle:
        diffs = [float(row["abs_diff"]) for row in csv.DictReader(handle)]
    # a nan fails the comparison and is counted as outside
    outside = sum(1 for diff in diffs if not diff <= 1e-10)
    print(f"exit {code}, {len(diffs)} rows, {wall:.1f} s, max RSS {rss:.0f} MB, "
          f"worst abs_diff {max(diffs, default=0.0):.3g}, {outside} above 1e-10")
    return code == 0 and len(diffs) == 2**20 and outside == 0 and rss <= 160


def campaign() -> bool:
    """A 2^18-cycle campaign fits in 160 MB, keeps every pair, and recovers its dipole.

    64 blocks of 4096 cycles, each drawn as vectors. dn_hat must lie within
    5 standard errors of the configured 3e-22. Written a line at a time
    from its columns, the campaign peaks at 80 MB on a 2-CPU host (105 MB
    while its whole text was built before the write), so the bound leaves
    it twice that.
    """
    cycles = 2**18
    with open("campaign.ini", "w") as handle:
        handle.write("[campaign]\ntrue_dn_e_cm = 3e-22\nb_drift_sd_tesla = 1e-12\n"
                     f"f_hg_noise_sd_rel = 1e-8\ncycles = {cycles}\nseed = 20261018\n")
    code, wall, rss = _run(["campaign", "--config", "campaign.ini", "--out", "cycles.csv"])
    if _failed(code, "nedmsim campaign"):
        return False
    with open("cycles.csv", "rb") as handle:
        lines = sum(1 for _ in handle)
    with open("cycles.summary.json") as handle:
        summary = json.load(handle)
    dn_hat, se, pairs = (summary[key] for key in ("dn_hat", "standard_error", "n_pairs"))
    print(f"exit {code}, {lines} lines, {wall:.1f} s, max RSS {rss:.0f} MB, "
          f"dn_hat {dn_hat:.6g} +- {se:.3g} from {pairs} pairs")
    # a nan fails the comparison and fails the check
    recovered = abs(dn_hat - 3e-22) <= 5.0 * se
    return (code == 0 and lines == cycles + 1 and rss <= 160
            and pairs == cycles // 2 and recovered)


WORKLOADS = ("cli_rerun", "fit_study", "simulate")


def bench(workload: str) -> bool:
    """One second of a benchmark workload at seed 7919 is deterministic and fails nothing.

    ``correct`` is false when two batches of one seed give different output
    bytes or check verdicts. At this seed every operation of each workload
    passes its checks: the campaign keeps every pair, every oracle point
    agrees with the closed form to 1e-10, and every rerun is byte-identical.
    """
    with open("bench.out", "w") as out:
        code = subprocess.run(["timeout", "600", sys.executable, "bench/run.py", "--workload",
                               workload, "--seed", "7919", "--seconds", "1", "--trace", "0"],
                              stdout=out).returncode
    if _failed(code, "bench/run.py"):
        return False
    with open("bench.out") as handle:
        last = (handle.read().splitlines() or [""])[-1]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        print(f"the last line of bench.out is not JSON: {last!r}")
        return False
    print(last)
    return result["correct"] is True and result["failed"] == 0


if __name__ == "__main__":
    checks = {("scan",): scan, ("campaign",): campaign,
              **{("bench", workload): partial(bench, workload) for workload in WORKLOADS}}
    check = checks.get(tuple(sys.argv[1:]))
    if check is None:
        sys.exit(f"usage: {sys.argv[0]} scan|campaign|bench {'|'.join(WORKLOADS)}")
    sys.exit(not check())
