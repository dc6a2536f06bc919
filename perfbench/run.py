#!/usr/bin/env python3
"""End-to-end benchmark of the stps library.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_sparse --seed 1 --seconds 30 --trace 0

Builds the driver and the library from src/ into .bench_build/, generates
the workload's input from the seed, drives the workload for the given
seconds, checks every output, and prints each metric with its unit. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 makes the traced run and reports the per-layer metrics. The exit
code is 1 when an output check failed, 2 when the benchmark could not run.

Workloads, metrics and their layers are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("sweep_sparse", "serve_mixed")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "first_pass_s": "s",
    "visible_p50_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "topk_p50_ms": "ms",
    "throughput_qps": "1/s",
}

PER_LAYER = {
    "planner.plan_ms": "ms",
    "planner.switches": "count",
    "planner.explore_ms": "ms",
    "planner.est_ratio": "ratio",
    "planner.stats_ms": "ms",
    "core.exec_ms": "ms",
    "core.candidates": "count",
    "core.verified": "count",
    "core.matches": "count",
    "core.cells_visited": "count",
    "core.verify_yield": "ratio",
    "core.count_pruned_frac": "ratio",
    "core.early_stop_frac": "ratio",
    "core.probe_ms": "ms",
    "spatial.batch_calls": "count",
    "spatial.lanes_per_call": "count",
    "text.signature_rejections": "ratio",
    "sketch.build_ms": "ms",
    "sketch.candidates": "count",
    "sketch.setup_share": "ratio",
    "io.read_ms": "ms",
    "io.write_ms": "ms",
    "io.bytes_per_object": "B",
    "update.seed_ms": "ms",
    "update.insert_us": "us",
    "update.publish_ms": "ms",
    "update.delta_frac": "ratio",
    "update.blocks_reused_frac": "ratio",
    "server.start_ms": "ms",
    "server.wire_p50_ms": "ms",
    "server.wire_tail_ms": "ms",
    "server.failed": "count",
    "server.rejected": "count",
    "server.late_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
    "trace.wall_ms": "ms",
    "self.planner_ms": "ms",
    "self.core_ms": "ms",
    "self.sketch_ms": "ms",
    "self.io_ms": "ms",
    "self.update_ms": "ms",
    "self.server_ms": "ms",
    "self.datagen_ms": "ms",
    "self.bench_ms": "ms",
}

# Per-layer metrics a workload does not exercise; reported as 0.
ABSENT = {
    "sweep": {
        **{m: "the sweeps do not go through the update layer"
           for m in PER_LAYER if m.startswith("update.")},
        **{m: "the sweeps do not go through the server"
           for m in PER_LAYER if m.startswith("server.")},
        "core.probe_ms": "the sweeps make no single-user probes",
    },
    "serve": {
        "planner.explore_ms": "the server's first pass plans inside the "
                              "server, out of the client's sight",
    },
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    with open(log_path, "w") as out:
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        log(Path(log_path).read_text()[-4000:])
        raise BenchError(f"{' '.join(cmd[:2])} failed (see {log_path})")


def build():
    """Configures once, then builds the driver (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources not found at src/")
    BUILD.mkdir(exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD / "configure.log")
    run_logged(["cmake", "--build", str(BUILD), "-j", "4",
                "--target", "stps_perfbench"], BUILD / "build.log")
    return BUILD / "stps_perfbench"


def run_driver(binary, args, timeout):
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver timed out: {' '.join(args[:3])}") from e
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise BenchError(f"driver failed ({done.returncode}): "
                         f"{' '.join(args[:3])}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit():
    """The git commit when run from a clone, else a digest of src/."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def host(build_info):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), **build_info,
            "commit": commit()}


def end_to_end(raw, kind):
    latency = raw["latency_ms"]
    tail_pct, tail_ms = stats.tail(latency, raw["min_samples"])
    if kind == "sweep":
        # Queries per second of the median warm pass.
        throughput = raw["pass_queries"] / (stats.median(raw["pass_ms"]) / 1e3)
    else:
        throughput = stats.median(raw["capacity_qps"])
    metrics = {
        "setup_s": stats.median(raw["setup_ms"]) / 1e3,
        "peak_rss_mb": raw["peak_rss_mb"],
        "first_pass_s": stats.median(raw["first_pass_ms"]) / 1e3,
        "visible_p50_ms": stats.median(raw["visible_ms"]),
        "latency_p50_ms": stats.median(latency),
        "latency_tail_ms": tail_ms,
        "topk_p50_ms": stats.median(raw["topk_ms"]),
        "throughput_qps": throughput,
    }
    notes = {
        "setup_s": sample_note(raw["setup_ms"], "set-ups", 1e-3),
        "first_pass_s": sample_note(raw["first_pass_ms"], "first passes", 1e-3),
        "visible_p50_ms": sample_note(raw["visible_ms"], "samples"),
        "latency_p50_ms": sample_note(latency, "samples"),
        "latency_tail_ms": f"p{tail_pct:g} of {len(latency)} samples",
        "topk_p50_ms": sample_note(raw["topk_ms"], "samples"),
    }
    return metrics, notes


def sample_note(values, what, scale=1.0):
    """"median of N <what>, quartiles q1..q3": the spread within the run."""
    note = f"median of {len(values)} {what}"
    if len(values) >= 2:
        q1, _, q3 = stats.quartiles(values)
        note += f", quartiles {q1 * scale:.4g}..{q3 * scale:.4g}"
    return note


def per_layer(raw, prep, kind):
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, value in raw["layers"].items():
        # Lists are per-call samples; report their median.
        metrics[name] = stats.median(value) if isinstance(value, list) else value
    metrics["sketch.setup_share"] = (metrics["sketch.build_ms"] /
                                     stats.median(raw["setup_ms"]))
    metrics["io.write_ms"] = prep["write_ms"]
    metrics["io.bytes_per_object"] = prep["file_bytes"] / prep["objects"]

    # The prepare and run processes each have their own time base.
    wall = 0.0
    self_ms = {}
    for spans in (prep["spans"], raw["spans"]):
        wall += stats.traced_wall(spans)
        for layer, ms in stats.self_times(spans).items():
            self_ms[layer] = self_ms.get(layer, 0.0) + ms
    for layer, ms in self_ms.items():
        metrics[f"self.{layer}_ms"] = ms
    metrics["trace.wall_ms"] = wall
    # The self times of all layers, the benchmark's own ("bench": harness
    # work and client idle time) included, as a share of the traced wall.
    metrics["trace.coverage"] = sum(self_ms.values()) / wall
    metrics["trace.overhead_pct"] = 100.0 * (
        stats.median(raw["overhead_traced"]) /
        stats.median(raw["overhead_untraced"]) - 1.0)

    notes = {}
    if kind == "serve":
        late = stats.lateness(raw["scheduled_ms"], raw["sent_ms"])
        pct, late_ms = stats.tail(late, len(late))
        metrics["server.late_ms"] = late_ms
        notes["server.late_ms"] = f"p{pct:g} of {len(late)} requests"
        wire = raw["wire_ms"]
        pct, wire_tail = stats.tail(wire, len(wire))
        metrics["server.wire_p50_ms"] = stats.median(wire)
        metrics["server.wire_tail_ms"] = wire_tail
        notes["server.wire_tail_ms"] = f"p{pct:g} of {len(wire)} probes"
    for name, why in ABSENT[kind].items():
        metrics[name] = 0.0
        notes[name] = f"absent: {why}"
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise BenchError(f"driver reported unknown metrics: {sorted(unknown)}")
    return metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
        data = BUILD / "data"
        data.mkdir(exist_ok=True)
        snapshot = data / f"{args.workload}-{args.seed}.stps"
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--snapshot", str(snapshot), "--trace", str(args.trace)]
        try:
            prep = run_driver(binary, ["prepare"] + common, timeout=120)
            raw = run_driver(binary, ["run"] + common +
                             ["--seconds", str(args.seconds)], timeout=170)
        finally:
            snapshot.unlink(missing_ok=True)
    except BenchError as e:
        log(f"error: {e}")
        return 2

    kind = "serve" if args.workload.startswith("serve") else "sweep"
    if args.trace:
        metrics, notes = per_layer(raw, prep, kind)
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(raw, kind)
        units = END_TO_END
    for query in raw.get("queries", []):
        query["warm_p50_ms"] = stats.median(query.pop("warm_ms"))
    correct = raw["failed"] == 0 and all(c["ok"] for c in raw["checks"])

    stamp = host(raw["build"])
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": stamp,
              "objects": raw["objects"], "users": raw["users"],
              "checks": raw["checks"], "notes": notes,
              "queries": raw.get("queries", []), "metrics": metrics}
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} objects={raw['objects']:.0f} "
          f"users={raw['users']:.0f}")
    print("# host: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    for check in raw["checks"]:
        print(f"# check {check['name']}: {'ok' if check['ok'] else 'FAILED'}"
              f" ({check['detail']})")
    for name, unit in units.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
