"""Freeze the expected output digest of every benchmark operation.

    python3 wbench/freeze.py [construct] [axioms] [cli]

The digests are a regression guard for byte-identical output, not a
correctness oracle: the oracles are the checks in workloads.py. Freezing
refuses to record an operation that fails, except the documented known
defects, whose expectation is the correct output taken from the direct
route (for ``verify --suite thm-3-6``: its PASS line).
"""

from __future__ import annotations

import json
import os
import sys

from common import EXPECTED, HOLDOUT_SEED, child_env, digest, use_checkout_sources
from worker import run_ops
from workloads import Axioms, Cli, Construct, LEVELS, cli_twin, run_walg

# Seeds whose axioms digests are frozen.
AXIOMS_SEEDS = tuple(range(10)) + (HOLDOUT_SEED,)


def _digests(wl, seed, twin=None):
    state = wl.setup(seed)
    results = {}
    ops = wl.ops(state, results)
    out = {}
    for op, res in zip(ops, run_ops(ops, results, {})):
        if res.failure is None:
            out[op.name] = digest(op.render(results[op.name]))
        elif op.name in wl.known_defects and twin is not None:
            out[op.name] = twin(op, results)
        else:
            raise SystemExit("cannot freeze: %s failed: %s" % (op.name, res.failure))
    return out


def freeze_construct():
    def twin(op, results):
        direct = op.name.replace("w_bracket_closed", "w_bracket_direct")
        return digest(results[direct].render())
    return _digests(Construct(), 0, twin)


def freeze_axioms():
    return {str(seed): _digests(Axioms(), seed) for seed in AXIOMS_SEEDS}


def freeze_cli():
    env = child_env()
    frozen = {}
    for n, level in enumerate(LEVELS):
        wl = Cli()

        def twin(op, results):
            argv = op.name.split(" ")
            other = cli_twin(argv)
            if other is None:
                return digest("PASS %s\n" % argv[-1])
            code, out, err = run_walg(other, env)
            if code != 0:
                raise SystemExit("twin of %s failed: %s" % (op.name, err[-300:]))
            return digest(out)
        frozen[level] = _digests(wl, n, twin)
    return frozen


def main(argv):
    use_checkout_sources()
    which = argv or ["construct", "axioms", "cli"]
    makers = {"construct": freeze_construct, "axioms": freeze_axioms,
              "cli": freeze_cli}
    os.makedirs(EXPECTED, exist_ok=True)
    for name in which:
        frozen = makers[name]()
        path = os.path.join(EXPECTED, name + ".json")
        with open(path, "w") as fh:
            json.dump(frozen, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print("froze %s -> %s" % (name, os.path.relpath(path)))


if __name__ == "__main__":
    main(sys.argv[1:])
