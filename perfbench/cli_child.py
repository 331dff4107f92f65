"""One traced CLI process: ``privopt.cli.main`` with spans around its stages.

Usage: ``python -X importtime perfbench/cli_child.py SPANS.json <privopt argv>``

Behaves like ``python -m privopt.cli <privopt argv>`` (same exit code,
same output, same uncaught tracebacks) and also writes the spans of
``load_scenario``, ``run_command`` and ``write_report`` to SPANS.json as
a list of ``[name, start_ns, end_ns, parent, op]``.
"""

import json
import sys

import privopt.cli as cli

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    points = [(cli, name, f"cli.{name}") for name in ("load_scenario", "run_command", "write_report")]
    tracer = tracing.Tracer(points, root=False)
    try:
        with tracer:
            return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
