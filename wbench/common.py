"""Shared helpers of the benchmark: checkout paths, digests, percentiles,
failure accounting and provenance. Standard library only."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")
EXPECTED = os.path.join(HERE, "expected")
OUT = os.path.join(ROOT, ".wbench")
SL4_FILE = os.path.join(DATA, "sl4_principal.json")

# Seed kept out of every tuning run; a claimed gain must also hold on it.
HOLDOUT_SEED = 2718

# Time of reference() on the machine the bounds were set on, in its fast
# phases. Fixed: changing it rescales every time the benchmark reports.
REF_SECONDS = 0.0016


class CheckoutError(RuntimeError):
    """The checkout does not hold the program's sources."""


def use_checkout_sources():
    """Import walgebras from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "walgebras", "__init__.py")):
        raise CheckoutError("no src/walgebras in %s: the benchmark runs the "
                            "program from its own checkout" % ROOT)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import walgebras
    where = os.path.dirname(os.path.abspath(walgebras.__file__))
    if where != os.path.join(SRC, "walgebras"):
        raise CheckoutError("walgebras imported from %s, not %s" % (where, SRC))
    return walgebras


def child_env():
    """Environment for subprocesses: this checkout's sources, fixed hashing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def reference():
    """A fixed pure-Python load of the program's kind (Fraction arithmetic,
    dict stores) that no change to the program can speed up."""
    total, seen = Fraction(0), {}
    for i in range(1, 750):
        total += Fraction(1, i % 97 + 1)
        seen[i % 31] = total
    return total


def slowness(clock=time.perf_counter):
    """How many times slower than REF_SECONDS the machine runs reference()
    right now. Times divided by it are in seconds at the reference speed."""
    t = clock()
    reference()
    return (clock() - t) / REF_SECONDS


def steady_slowness():
    """Median of three slowness readings, for the set-up window, which has
    only one reading at each end."""
    return median([slowness() for _ in range(3)])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. Returns (value, number of samples above it)."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def median(values):
    xs = sorted(values)
    n = len(xs)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


class OpResult:
    """Outcome of one timed operation."""

    __slots__ = ("name", "seconds", "failure")

    def __init__(self, name, seconds, failure=None):
        self.name = name
        self.seconds = seconds
        self.failure = failure  # None, or a one-line reason

    def to_obj(self):
        return [self.name, self.seconds, self.failure]

    @staticmethod
    def from_obj(obj):
        return OpResult(obj[0], obj[1], obj[2])


def tally(results, known_defects):
    """Fail accounting over operation results.

    known_defects maps an operation name to a substring its documented
    failure reason contains. Every failure counts in ``failed``; the run is
    ``correct`` only if each failure is a documented known defect failing
    in the documented way.
    """
    attempted = len(results)
    failed = [r for r in results if r.failure is not None]
    unexpected = [r for r in failed
                  if r.name not in known_defects
                  or known_defects[r.name] not in r.failure]
    return {
        "attempted": attempted,
        "failed": len(failed),
        "fail_ratio": len(failed) / attempted if attempted else 1.0,
        "known_defect_failures": len(failed) - len(unexpected),
        "unexpected": [(r.name, r.failure) for r in unexpected],
        "correct": attempted > 0 and not unexpected,
    }


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def tree_digest(top):
    """sha256 over the relative paths and bytes of the .py/.json files."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith((".py", ".json")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance():
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "git_sha": _git_sha(),
        "src_sha256": tree_digest(SRC),
        "bench_sha256": tree_digest(HERE),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "holdout_seed": HOLDOUT_SEED,
    }
