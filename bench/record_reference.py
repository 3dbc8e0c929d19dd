"""Record the stdout digests that ``large-q`` compares against on its
default seed.

    python3 bench/record_reference.py

Run it only when a change to the CLI's output is intended; the digests pin
the bytes every later run on the default seed must print.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import (
    DEFAULT_SEED,
    REFERENCE_PATH,
    ROOT,
    check_cli_output,
    command_key,
    large_q_commands,
    stdout_digest,
)


def main() -> int:
    digests = {}
    for argv, hist in large_q_commands(DEFAULT_SEED):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "launch.py"), "--", *argv],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        errors = check_cli_output(argv, proc.stdout, hist)
        if proc.returncode != 0 or proc.stderr.strip() or errors:
            print(f"not recorded: {command_key(argv)}: exit {proc.returncode} "
                  f"{proc.stderr.strip()} {errors}", file=sys.stderr)
            return 1
        digests[command_key(argv)] = stdout_digest(proc.stdout)
    os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "stdout_sha256": digests}, fh, indent=2)
        fh.write("\n")
    print(f"recorded {len(digests)} commands to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
