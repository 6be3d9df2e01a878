"""Record the golden CLI transcripts the ``cli`` workload compares against.

    python3 perfbench/capture_golden.py

Runs every command a seed can choose (``workloads.all_cli_commands``) with
``--json --verbose`` and stores its exit code and exact stdout in
``perfbench/golden/cli.json``.  Capture at the commit whose behaviour is the
reference; a later change that alters any report then shows as failed ops.
"""

import json
import subprocess
import sys

import workloads


def main() -> int:
    golden = {}
    for argv in workloads.all_cli_commands():
        p = subprocess.run([sys.executable, "-m", "catend.cli", *argv],
                           cwd=workloads.ROOT, env=workloads.cli_env(),
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=120)
        golden[workloads.cli_key(argv)] = {"argv": argv, "exit": p.returncode,
                                           "stdout": p.stdout}
    workloads.GOLDEN.parent.mkdir(exist_ok=True)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} golden transcripts in {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
