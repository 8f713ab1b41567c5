"""Run one ``gapalign`` CLI command with every layer wrapped in spans.

Usage: ``python perfbench/traced_cli.py <gapalign arguments>`` with the
environment variable ``PERFBENCH_TRACE_OUT`` naming the JSON file that
receives the span summary.  Behaves like ``python -m gapalign.cli``
otherwise: same arguments, same outputs, same exit code.
"""

import json
import os
import sys

import gapalign.cli
from tracer import Tracer, install


def main(argv):
    tracer = Tracer()
    install(tracer)
    root = tracer.begin(f"cli.{argv[0]}")
    try:
        code = gapalign.cli.main(argv)
    finally:
        tracer.end(root)
        record = {
            "root_start_ns": root.start,
            "root_end_ns": root.end,
            "spans": tracer.summary(),
            "run_toy_training_children": tracer.children_of("simulator.run_toy_training"),
        }
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
