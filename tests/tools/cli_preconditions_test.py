#!/usr/bin/env python3
"""End-to-end check that `stps_cli` rejects, rather than aborts on,
thresholds an algorithm cannot run with.

Each case must exit 2 with an "error:" line, like any other argv error:
the grid algorithms need eps_loc > 0, S-PPJ-F and the index-based top-k
variants need eps_doc > 0, and `tune` scales its steps by positive
initial thresholds. A threshold an algorithm does not need stays
accepted: S-PPJ-B runs with eps_doc = eps_u = 0.

Usage: cli_preconditions_test.py <path to stps_cli>
"""

import subprocess
import sys
import tempfile
from pathlib import Path

USERS = 300


def run(cli, *args):
    return subprocess.run([cli, *args], capture_output=True, text=True,
                          timeout=120)


def main():
    cli = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        data = str(Path(tmp) / "checkin.tsv")
        proc = run(cli, "generate", "checkin", str(USERS), data, "7")
        if proc.returncode != 0:
            sys.exit(f"generate exited {proc.returncode}: {proc.stderr}")

        for args in (["join", data, "0", "0.4", "0.4", "sppjf"],
                     ["join", data, "0.001", "0", "0.4", "sppjf"],
                     ["topk", data, "0", "0.4", "5", "p"],
                     ["topk", data, "0.001", "0", "5", "p"],
                     ["tune", data, "10", "0.001", "0", "0.4"]):
            proc = run(cli, *args)
            errors = [line for line in proc.stderr.splitlines()
                      if line.startswith("error:")]
            if proc.returncode != 2 or not errors:
                failures.append(f"{' '.join(args[:1] + args[2:])}: exit "
                                f"{proc.returncode}, stderr {proc.stderr!r}")

        proc = run(cli, "join", data, "0.001", "0", "0", "sppjb")
        pairs = len(proc.stdout.splitlines())
        if proc.returncode != 0 or pairs != USERS * (USERS - 1) // 2:
            failures.append(f"join 0.001 0 0 sppjb: exit {proc.returncode}, "
                            f"{pairs} pairs")
    if failures:
        sys.exit("FAIL:\n  " + "\n  ".join(failures))
    print("cli_preconditions_test: ok")


if __name__ == "__main__":
    main()
