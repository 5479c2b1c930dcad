"""The walgebras benchmark.

    python3 wbench/run.py --workload construct|axioms|cli|all --seed N
                          --seconds S --trace 0|1

One client issues one operation at a time (closed loop). A run executes a
fixed number of passes of the workload's fixed operation list (2 for
construct and axioms, 1 for cli: about 40 s on the machine the bounds were
set on), each in a fresh interpreter and each with the same inputs. Times
are calibrated against a fixed reference load run next to each call
(common.slowness), and each operation's time is the best of its passes. The
run then adds set-up-only passes while they fit in --seconds, until it has
three set-up times. With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass plus the tracing overhead against an
untraced pass of the same run. The last line of stdout is the result JSON;
the full report goes to .wbench/ in the checkout. See wbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time

from common import (OUT, SRC, CheckoutError, OpResult, child_env, median,
                    percentile, provenance, tally, use_checkout_sources)
from workloads import WORKLOADS

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_SAMPLES = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))

# Per-layer metrics: (name, unit, source). Sources: ("self_s", span name),
# ("calls", span name), ("counter", name), ("stat", "<span name>.<stat>").
PER_LAYER = (
    ("scalars.GRat.ops", "count", ("counter", "scalars.GRat.ops")),
    ("scalars.Scalar.mul.calls", "count", ("counter", "scalars.Scalar.mul.calls")),
    ("scalars.Scalar.add.calls", "count", ("counter", "scalars.Scalar.add.calls")),
    ("scalars.solve_linear.calls", "count", ("calls", "scalars.solve_linear")),
    ("scalars.solve_linear.self_s", "s", ("self_s", "scalars.solve_linear")),
    ("scalars.solve_linear.rows", "count", ("stat", "scalars.solve_linear.rows")),
    ("scalars.solve_linear.cols", "count", ("stat", "scalars.solve_linear.cols")),
    ("scalars.solve_linear.nnz", "count", ("stat", "scalars.solve_linear.nnz")),
    ("superpoly.SuperPoly.mul.calls", "count",
     ("counter", "superpoly.SuperPoly.mul.calls")),
    ("superpoly.SuperPoly.add.calls", "count",
     ("counter", "superpoly.SuperPoly.add.calls")),
    ("superpoly.SuperPoly.mul.terms_out", "count",
     ("counter", "superpoly.SuperPoly.mul.terms_out")),
) + tuple(
    ("superpoly.SuperPoly.%s.%s" % (fn, st), unit,
     (st, "superpoly.SuperPoly." + fn))
    for fn in ("deriv", "partial", "substitute")
    for st, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("pva.master_bracket.calls", "count", ("calls", "pva.master_bracket")),
    ("pva.master_bracket.self_s", "s", ("self_s", "pva.master_bracket")),
    ("pva.master_bracket.terms_out", "count",
     ("stat", "pva.master_bracket.terms_out")),
    ("spva.susy_master_bracket.calls", "count",
     ("calls", "spva.susy_master_bracket")),
    ("spva.susy_master_bracket.self_s", "s",
     ("self_s", "spva.susy_master_bracket")),
    ("spva.susy_master_bracket.terms_out", "count",
     ("stat", "spva.susy_master_bracket.terms_out")),
    ("pva.bracket_oracle.self_s", "s", ("self_s", "pva.bracket_oracle")),
    ("spva.susy_bracket_oracle.self_s", "s", ("self_s", "spva.susy_bracket_oracle")),
) + tuple(
    (name + ".self_s", "s", ("self_s", name)) for name in (
        "liealg.validate_algebra", "liealg.dual_bases_F", "liealg.dual_bases_f",
        "wclassical.ReductionContext", "wclassical.solve_generator",
        "wclassical.w_bracket_direct", "wclassical.w_bracket_closed",
        "wclassical.rewrite_in_generators",
        "swclassical.SUSYReductionContext", "swclassical.solve_susy_generator",
        "swclassical.susy_w_bracket_direct", "swclassical.susy_w_bracket_closed",
        "brst.BRSTDifferential.verify", "brst.cohomology_generators",
        "brst.brst_bracket_table", "brst.check_thm_5_9", "cli.main")
) + (
    ("cli.generator_solves_per_op", "count/op", ("derived", "solves_per_op")),
    ("cli.cmd_verify.generator_solves_per_op", "count/op",
     ("derived", "verify_solves_per_op")),
    ("trace.overhead_ratio", "ratio", ("derived", "overhead_ratio")),
)


class RunError(RuntimeError):
    pass


def run_pass(workload, seed, pass_index, trace=False, setup_only=False):
    t0 = time.time()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--pass", str(pass_index), "--trace", "1" if trace else "0",
           "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=175)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError("pass %d of %s failed (exit %d): %s"
                       % (pass_index, workload, proc.returncode,
                          proc.stderr.strip()[-2000:]))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["duration_s"] = time.time() - t0
    return report


def layer_metrics(trace, untraced_wall, traced_wall):
    derived = {
        "overhead_ratio": traced_wall / untraced_wall - 1.0,
        "solves_per_op": 0.0, "verify_solves_per_op": 0.0,
    }
    if "commands" in trace:
        solves = sum(trace["calls"].get(n, 0) for n in
                     ("wclassical.solve_all_generators",
                      "swclassical.solve_all_susy_generators"))
        derived["solves_per_op"] = solves / trace["commands"]
        if trace["verify_commands"]:
            derived["verify_solves_per_op"] = (trace["verify_solves"]
                                               / trace["verify_commands"])
    out = {}
    for name, unit, (kind, key) in PER_LAYER:
        if kind == "derived":
            value = derived[key]
        elif kind == "counter":
            value = trace["counters"].get(key, 0)
        elif kind == "stat":
            value = trace["stats"].get(key, 0)
        else:
            value = trace[kind].get(key, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def best_times(passes):
    """Each operation's fastest time over the passes, as {name: seconds} in
    list order. Every pass runs the same operation list on the same inputs."""
    names = [o[0] for o in passes[0]["ops"]]
    best = {}
    for p in passes:
        if [o[0] for o in p["ops"]] != names:
            raise RunError("passes ran different operation lists")
        for name, seconds, _failure in p["ops"]:
            best[name] = min(seconds, best.get(name, seconds))
    return best


def run_workload(workload, seed, seconds, trace):
    start = time.time()
    passes, setup_only = [], []
    if trace:
        passes.append(run_pass(workload, seed, 0))
        passes.append(run_pass(workload, seed, 0, trace=True))
    else:
        for n in range(WORKLOADS[workload].passes):
            passes.append(run_pass(workload, seed, n))
        while len(passes) + len(setup_only) < SETUP_SAMPLES:
            guess = median([p["raw_setup_s"] for p in passes + setup_only]) + 0.5
            if time.time() - start + guess > seconds:
                break
            setup_only.append(run_pass(workload, seed, len(passes)
                                       + len(setup_only), setup_only=True))
    results = [OpResult.from_obj(o) for p in passes for o in p["ops"]]
    known = {}
    for p in passes:
        known.update(p["known_defects"])
    acct = tally(results, known)
    # A traced pass is timed only for the overhead; its op times stay out.
    best = best_times(passes[:1] if trace else passes)
    lat = list(best.values())
    p50, above50 = percentile(lat, 50)
    p90, above90 = percentile(lat, 90)
    e2e = {
        "setup_s": median([p["setup_s"] for p in passes + setup_only]),
        "wall_s": sum(lat),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "level": passes[0].get("level"),
        "passes": len(passes), "setup_samples": len(passes) + len(setup_only),
        "ops_per_pass": [len(p["ops"]) for p in passes],
        "samples": {"ops": len(lat), "passes_per_op": 1 if trace else len(passes),
                    "above_p50": above50, "above_p90": above90},
        "fail_ratio": acct["fail_ratio"],
        "known_defect_failures": acct["known_defect_failures"],
        "unexpected_failures": acct["unexpected"][:20],
        "failures": sorted({(r.name, r.failure) for r in results
                            if r.failure})[:20],
        "digests_checked": sum(p["digests_checked"] for p in passes),
        "end_to_end": e2e,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "op_best_s": best,
        "pass_setup_s": [p["setup_s"] for p in passes + setup_only],
        "provenance": provenance(),
        "run_s": time.time() - start,
    }
    if trace:
        traced = passes[1]["trace"]
        report["per_layer"] = layer_metrics(traced, passes[0]["wall_s"],
                                            passes[1]["wall_s"])
        report["trace_info"] = {
            "spans": traced["spans"], "untraced_wall_s": passes[0]["wall_s"],
            "traced_wall_s": passes[1]["wall_s"],
            "verify_solves_max": traced.get("max_verify_solves")}
        report["trace_missing"] = traced["missing"]
        metrics = report["per_layer"]
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": e2e[name], "unit": units[name]}
                   for name, _u in END_TO_END}
    result = {"correct": acct["correct"], "attempted": acct["attempted"],
              "failed": acct["failed"], "metrics": metrics}
    return report, result


def summary_lines(report):
    e = report["end_to_end"]
    s = report["samples"]
    yield ("%s seed=%d level=%s passes=%d setups=%d ops/pass=%s"
           % (report["workload"], report["seed"], report["level"],
              report["passes"], report["setup_samples"], report["ops_per_pass"]))
    yield ("  setup_s=%.3f s  wall_s=%.3f s  op_p50_ms=%.3f ms (n=%d)  "
           "op_p90_ms=%.3f ms (n=%d, %d above)  peak_rss_mb=%.1f MB  "
           "[each op: best of %d pass(es)]"
           % (e["setup_s"], e["wall_s"], e["op_p50_ms"], s["ops"],
              e["op_p90_ms"], s["ops"], s["above_p90"], e["peak_rss_mb"],
              s["passes_per_op"]))
    yield ("  fail_ratio=%.4f (%d known-defect failures, %d unexpected)  "
           "digests checked=%d"
           % (report["fail_ratio"], report["known_defect_failures"],
              len(report["unexpected_failures"]), report["digests_checked"]))
    for name, why in report["unexpected_failures"]:
        yield "  UNEXPECTED FAILURE %s: %s" % (name, why)
    if report.get("trace_missing"):
        yield "  trace targets missing: %s" % ", ".join(report["trace_missing"])
    if "per_layer" in report:
        info = report["trace_info"]
        yield ("  tracing overhead: %.3f (traced wall %.3f s vs untraced %.3f s, "
               "one pass each); spans=%d"
               % (report["per_layer"]["trace.overhead_ratio"]["value"],
                  info["traced_wall_s"], info["untraced_wall_s"], info["spans"]))
        if info["verify_solves_max"] is not None:
            yield ("  most generator solves in one verify command: %d"
                   % info["verify_solves_max"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        use_checkout_sources()
        # The program runs from bytecode, as an installed package does. A
        # fresh checkout has none, and with PYTHONDONTWRITEBYTECODE set every
        # pass and command would compile every module again.
        compileall.compile_dir(os.path.join(SRC, "walgebras"), quiet=1)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        done = {}
        for name in names:
            report, result = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                                % (name, args.seed, args.trace))
            with open(path, "w") as fh:
                json.dump({"report": report, "result": result}, fh, indent=1)
            for line in summary_lines(report):
                print(line)
            print(json.dumps({"report": {k: report[k] for k in (
                "workload", "seed", "level", "provenance", "samples",
                "fail_ratio", "passes", "setup_samples")}}))
            done[name] = result
    except (CheckoutError, RunError) as e:
        sys.stderr.write("benchmark error: %s\n" % e)
        return 2
    if args.workload == "all":
        print(json.dumps(done))
    else:
        print(json.dumps(done[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
