"""Run one catend CLI command with the benchmark's wrappers installed.

Usage: python3 perfbench/cli_shim.py TRACE_FILE CATEND_ARGS...

The command's stdout and exit code are exactly those of ``catend``; the
recorder's stats and spans are written to TRACE_FILE as JSON when it ends.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    trace_file, args = argv[0], argv[1:]
    import catend.cli
    rec = tracing.Recorder()
    rec.op = "cli"
    harness = tracing.Harness(rec)
    harness.install()
    try:
        code = catend.cli.main(args)
    finally:
        harness.uninstall()
    sys.stdout.flush()
    Path(trace_file).write_text(json.dumps({"stats": rec.stats(), "spans": rec.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
