#!/usr/bin/env python3
"""End-to-end check of `stps_cli join|topk --explain`.

With an explicit algorithm the JSON "plan" and the "[chosen]" mark of the
stderr table must name the shape that ran, not the one kAuto would have
picked; "considered" keeps the planner's full table, and "feedback" holds
the one run the fresh process recorded.

Usage: cli_explain_test.py <path to stps_cli>
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(cli, *args):
    proc = subprocess.run([cli, *args], capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return proc


def explain(cli, *args):
    proc = run(cli, *args, "--explain")
    chosen = [line for line in proc.stderr.splitlines() if "[chosen]" in line]
    return json.loads(proc.stdout), chosen


def check(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)


def check_explicit(doc, chosen, shape, kind):
    check(doc["plan"]["shape"] == shape,
          f"plan names {doc['plan']['shape']}, {shape} ran")
    check(len(chosen) == 1 and shape + " " in chosen[0],
          f"[chosen] marks {chosen}, {shape} ran")
    check(any(c["shape"] == shape for c in doc["considered"]),
          f"{shape} missing from the considered table")
    check(len(doc["considered"]) > 1, "considered lost the planner's table")
    check(doc["feedback"][kind]["runs"] == 1,
          f"feedback holds {doc['feedback'][kind]['runs']} {kind} runs")
    check([f["shape"] for f in doc["feedback"]["shapes"]] == [shape],
          f"feedback shapes {doc['feedback']['shapes']}")


def main():
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        data = str(Path(tmp) / "checkin.tsv")
        run(cli, "generate", "checkin", "300", data, "7")

        doc, chosen = explain(cli, "join", data, "0.001", "0.4", "0.4",
                              "sppjc")
        check_explicit(doc, chosen, "S-PPJ-C", "join")
        check(doc["actual"]["pairs_verified"] == 300 * 299 // 2,
              "S-PPJ-C did not verify every user pair")

        doc, chosen = explain(cli, "topk", data, "0.001", "0.4", "5", "s")
        check_explicit(doc, chosen, "TOPK-S-PPJ-S", "topk")

        # kAuto reports its own choice: the head of the considered table.
        doc, chosen = explain(cli, "join", data, "0.001", "0.4", "0.4")
        check(doc["plan"]["shape"] == doc["considered"][0]["shape"],
              "kAuto's plan is not the cheapest considered shape")
        check(len(chosen) >= 1, "kAuto's table has no [chosen] mark")

        # --threads is the join's thread budget: an explicit algorithm
        # runs at it, kAuto plans within it.
        doc, _ = explain(cli, "join", data, "0.001", "0.4", "0.4",
                         "--threads", "2", "sppjf")
        check(doc["plan"]["shape"] == "S-PPJ-F" and
              doc["plan"]["threads"] == 2,
              f"--threads 2 sppjf planned {doc['plan']}")
        doc, _ = explain(cli, "join", data, "0.001", "0.4", "0.4",
                         "--threads", "2")
        threads = {c["threads"] for c in doc["considered"]}
        check(threads == {1, 2},
              f"--threads 2 considered shapes at threads {sorted(threads)}")
    print("cli_explain_test: ok")


if __name__ == "__main__":
    main()
