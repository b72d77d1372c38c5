"""Boot ``python -m repro serve`` with the benchmark's span wrappers in place.

    python3 perfbench/serve_daemon.py --spans FILE -- serve --users 10000 ...

The wrappers (``tracing.SERVE_TARGETS``) are installed before the daemon
boots.  When the daemon exits (SIGINT), its spans are written to FILE as
JSON lines, and ``FILE.meta.json`` records the bytes its compiled kernel
tables hold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="span output file")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="arguments of `python -m repro`")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import metrics, tracing
    from repro.__main__ import main as repro_main

    log = tracing.SpanLog(cpu=True)
    tracing.install(log, tracing.SERVE_TARGETS)
    try:
        return repro_main(command)
    finally:
        log.dump(args.spans)
        Path(args.spans + ".meta.json").write_text(
            json.dumps({"table_bytes": metrics.table_bytes()}))


if __name__ == "__main__":
    sys.exit(main())
