"""Run one ``walg`` command under the tracer (traced cli passes only).

    WBENCH_TRACE_OUT=PREFIX python3 wbench/tracecli.py <walg arguments>

Writes PREFIX.json (span totals, counters, argv) and PREFIX.tsv (spans) when
the command ends, also when it raises; the exit status is the command's.
"""

from __future__ import annotations

import json
import os
import sys

from common import use_checkout_sources
from tracer import Tracer


def main():
    use_checkout_sources()
    import walgebras.cli  # noqa: F401  (imports every walgebras module)
    prefix = os.environ["WBENCH_TRACE_OUT"]
    tracer = Tracer()
    tracer.install()
    argv = sys.argv[1:]
    try:
        code = sys.modules["walgebras.cli"].main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["argv"] = argv
        with open(prefix + ".json", "w") as fh:
            json.dump(summary, fh)
        tracer.write_spans(prefix + ".tsv")
    return code


if __name__ == "__main__":
    sys.exit(main())
