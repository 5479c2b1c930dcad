"""One pass of one workload, in a fresh interpreter.

    python3 wbench/worker.py --workload W --seed N --pass P --trace 0|1
                             --t0 SPAWN_TIME [--setup-only]

Set-up time runs from SPAWN_TIME (the parent's time.time() when it started
this process) to the first timed operation, so it includes interpreter start
and imports. Set-up and every operation's time are divided by the machine's
slowness measured next to them (common.slowness), so they are seconds at the
reference speed. Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

from common import (EXPECTED, OUT, OpResult, digest, slowness,
                    steady_slowness)
from workloads import WORKLOADS


def load_expected(workload, seed, level=None):
    path = os.path.join(EXPECTED, workload + ".json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        frozen = json.load(fh)
    if workload == "construct":
        return frozen
    if workload == "cli":
        return frozen.get(level, {})
    return frozen.get(str(seed), {})


def run_ops(ops, results, expected, clock=time.perf_counter, calibrate=False):
    """Time each operation, then check it; returns [OpResult]. With
    calibrate, each call's time is divided by the machine's slowness measured
    just before and just after it (common.slowness)."""
    out = []
    for op in ops:
        failure = None
        before = slowness(clock) if calibrate else 1.0
        t = clock()
        try:
            value = op.call()
        except Exception as e:  # an operation that raises is a failed one
            value, failure = None, "raised %s: %s" % (type(e).__name__,
                                                      str(e)[:200])
        dt = clock() - t
        if calibrate:
            dt /= (before + slowness(clock)) / 2
        if failure is not None:
            out.append(OpResult(op.name, dt, failure))
            continue
        results[op.name] = value
        try:
            if op.check is not None:
                failure = op.check(value)
            if failure is None and op.name in expected and op.render is not None:
                got = digest(op.render(value))
                if got != expected[op.name]:
                    failure = "output digest %s differs from frozen %s" % (
                        got, expected[op.name])
        except Exception as e:  # a check that cannot run fails the operation
            failure = "check raised %s: %s" % (type(e).__name__, str(e)[:200])
        out.append(OpResult(op.name, dt, failure))
    return out


def cli_trace_summary(trace_dir, commands):
    """Sum the per-command trace summaries the traced subprocesses wrote."""
    total = {"calls": {}, "self_s": {}, "counters": {}, "stats": {},
             "missing": set(), "spans": 0, "commands": commands,
             "verify_commands": 0, "verify_solves": 0, "max_verify_solves": 0}
    for fn in sorted(os.listdir(trace_dir)):
        if not fn.endswith(".json"):
            continue
        with open(os.path.join(trace_dir, fn)) as fh:
            s = json.load(fh)
        for key in ("calls", "self_s", "counters", "stats"):
            for name, val in s[key].items():
                total[key][name] = total[key].get(name, 0) + val
        total["missing"].update(s["missing"])
        total["spans"] += s["spans"]
        if s["argv"][:1] == ["verify"]:
            solves = sum(s["calls"].get(n, 0) for n in
                         ("wclassical.solve_all_generators",
                          "swclassical.solve_all_susy_generators"))
            total["verify_commands"] += 1
            total["verify_solves"] += solves
            total["max_verify_solves"] = max(total["max_verify_solves"], solves)
    total["missing"] = sorted(total["missing"])
    return total


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", type=int, required=True, dest="pass_index")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # Inside the set-up window; its own time is taken out below.
    t = time.perf_counter()
    early = steady_slowness()
    early_s = time.perf_counter() - t
    wl = WORKLOADS[args.workload]()
    tracer = trace_dir = None
    if args.trace and args.workload == "cli":
        trace_dir = os.path.join(OUT, "trace", "cli-seed%d-pass%d"
                                 % (args.seed, args.pass_index))
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        wl.trace_dir = trace_dir
    elif args.trace:
        # The traced pass covers set-up too, so that validation and context
        # building show in their layers; install before anything binds names.
        from common import use_checkout_sources
        from tracer import Tracer
        use_checkout_sources()
        import walgebras.cli  # noqa: F401  (imports every walgebras module)
        tracer = Tracer()
        tracer.install()
    state = wl.setup(args.seed)
    results = {}
    ops = wl.ops(state, results)
    level = state.get("level")
    expected = load_expected(args.workload, args.seed, level)
    raw_setup_s = time.time() - args.t0 - early_s
    late = steady_slowness()

    report = {"setup_s": raw_setup_s / ((early + late) / 2), "level": level,
              "raw_setup_s": raw_setup_s, "slowness": [early, late]}
    if not args.setup_only:
        op_results = run_ops(ops, results, expected, calibrate=True)
        # The calls alone: the checks and digests after each are left out.
        report["wall_s"] = sum(r.seconds for r in op_results)
        report["ops"] = [r.to_obj() for r in op_results]
        report["digests_checked"] = sum(1 for op in ops if op.name in expected)
        report["known_defects"] = getattr(wl, "known_defects", {})
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else \
        resource.RUSAGE_SELF
    report["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        tracer.write_spans(os.path.join(OUT, "trace", "%s-seed%d-pass%d.tsv" % (
            args.workload, args.seed, args.pass_index)))
    elif trace_dir is not None:
        report["trace"] = cli_trace_summary(trace_dir, len(ops))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
