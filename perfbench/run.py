"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload store_bulk --seed 1 --seconds 20 --trace 0

Whole rounds of the workload (see :mod:`lifecycle`) repeat while the
next one is expected to end within ``--seconds``; every timed phase is
reported as the median of its repeats.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced rounds: the traced ones
wrap the library's layer functions (:mod:`spans`) and give the per-layer
metrics, and the difference between the two kinds of round is reported
as ``trace.overhead_pct``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

E2E_UNITS = {
    "setup_s": "s",
    "ingest_rps": "records/s",
    "compact_s": "s",
    "query_p50_us": "us",
    "query_p90_us": "us",
    "save_s": "s",
    "open_s": "s",
    "recover_s": "s",
    "bytes_per_record": "B",
    "agg_serial_s": "s",
    "agg_parallel_s": "s",
    "agg_runtime_s": "s",
    "wire_bytes": "B",
    "peak_rss_mb": "MB",
}


def _import_library():
    """Put the checkout's ``src`` first on the path; fail if it is missing."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: no library source under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import lifecycle  # noqa: F401  (imports repro)

    return lifecycle


def end_to_end(rounds) -> dict:
    """Medians over the pooled repeats of every round."""
    import numpy as np

    pooled = {}
    for rec in rounds:
        for metric, values in rec.samples.items():
            pooled.setdefault(metric, []).extend(values)

    queries = pooled["query_us"]
    values = {
        "setup_s": statistics.median(pooled["setup_s"]),
        "ingest_rps": statistics.median(pooled["ingest_rps"]),
        "compact_s": statistics.median(pooled["compact_s"]),
        "query_p50_us": statistics.median(queries),
        "query_p90_us": float(np.percentile(queries, 90)),
        "save_s": statistics.median(pooled["save_s"]),
        "open_s": statistics.median(pooled["open_s"]),
        "recover_s": statistics.median(pooled["recover_s"]),
        "bytes_per_record": statistics.median(pooled["bytes_per_record"]),
        "agg_serial_s": statistics.median(pooled["agg_serial_s"]),
        "agg_parallel_s": statistics.median(pooled["agg_parallel_s"]),
        "agg_runtime_s": statistics.median(pooled["agg_runtime_s"]),
        "wire_bytes": statistics.median(pooled["wire_bytes"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics from the traced rounds (see README for the map).

    Times are self seconds and counts are per call of the phase they
    belong to: per round for ingest and aggregation, per call for
    compact, query, save, open and recover.
    """
    self_s, calls, counts, layer, entries = {}, {}, {}, {}, {}
    for rec, tracer in traced:
        for key, value in tracer.self_times().items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in tracer.calls().items():
            calls[key] = calls.get(key, 0) + value
        for key, value in tracer.counts.items():
            counts[key] = counts.get(key, 0.0) + value
        for key, value in rec.layer.items():
            if key == "agg.max_size":
                layer[key] = max(layer.get(key, 0.0), value)
            else:
                layer[key] = layer.get(key, 0.0) + value
        for key, value in rec.entries.items():
            entries[key] = entries.get(key, 0) + value

    def st(phase, *names, parent=None):
        return sum(
            value
            for (p, name, parent_name), value in self_s.items()
            if p == phase and name in names and (parent is None or parent_name == parent)
        )

    def per(phase):
        return max(1, entries.get(phase, 0))

    rounds = len(traced)
    aggs = max(1, entries.get("agg_serial", 0) // 2)
    q, c, s, o, v = per("query"), per("compact"), per("save"), per("open"), per("recover")
    lookups = layer.get("query.view_lookups", 0.0)
    windows = layer.get("query.window_queries", 0.0)
    overhead = 100.0 * (
        statistics.median(rec.work_s for rec, _ in traced)
        / statistics.median(rec.work_s for rec in untraced)
        - 1.0
    )
    metrics = {
        "ingest.validate_s": (st("ingest", "normalize_batch") / rounds, "s"),
        "ingest.wal_append_s": (
            (st("ingest", "wal_append") + st("ingest", "fsync", parent="wal_append")) / rounds,
            "s",
        ),
        "ingest.wal_fsyncs": (counts.get(("ingest", "fsyncs"), 0.0) / rounds, "count"),
        "ingest.wal_bytes_per_record": (
            counts.get(("ingest", "bytes_written"), 0.0) / max(1.0, layer.get("ingest.records", 0.0)),
            "B",
        ),
        "ingest.build_members_s": (st("ingest", "build_members") / rounds, "s"),
        "ingest.update_batch_s": (st("ingest", "update_batch") / rounds, "s"),
        "ingest.merged_segment_s": (st("ingest", "merged_segment", "merge") / rounds, "s"),
        "ingest.bucketing_self_s": (st("ingest", "ingest") / rounds, "s"),
        "ingest.units_replaced": (layer.get("ingest.units_replaced", 0.0) / rounds, "count"),
        "ingest.rollups_invalidated": (layer.get("ingest.rollups_invalidated", 0.0) / rounds, "count"),
        "compact.execute_plan_s": (st("compact", "execute_plan") / c, "s"),
        "compact.merge_many_s": (st("compact", "merge") / c, "s"),
        "compact.self_s": (st("compact", "compact") / c, "s"),
        "compact.rollups_built": (layer.get("compact.rollups_built", 0.0) / c, "count"),
        "query.plan_s": (st("query", "plan") / q, "s"),
        "query.fan_in": (layer.get("query.fan_in", 0.0) / q, "count"),
        "query.merge_many_s": (st("query", "merge") / q, "s"),
        "query.answer_s": (st("query", "answer") / q, "s"),
        "query.view_hit_ratio": (layer.get("query.view_hits", 0.0) / lookups if lookups else 0.0, "ratio"),
        "query.stale_epochs": (layer.get("query.stale_epochs", 0.0) / q, "count"),
        "query.window_slack_epochs": (
            layer.get("query.window_slack_epochs", 0.0) / windows if windows else 0.0,
            "count",
        ),
        "save.encode_s": ((st("save", "encode") + st("save", "checksum", parent="encode")) / s, "s"),
        "save.write_segment_s": (st("save", "write_segment") / s, "s"),
        "save.fsync_s": ((st("save", "fsync") + counts.get(("save", "fsync_wait_s"), 0.0)) / s, "s"),
        "save.fsyncs": (counts.get(("save", "fsyncs"), 0.0) / s, "count"),
        "save.containers_written": (layer.get("save.containers_written", 0.0) / s, "count"),
        "save.bytes_written": (counts.get(("save", "bytes_written"), 0.0) / s, "B"),
        "save.manifest_bytes": (layer.get("save.manifest_bytes", 0.0) / rounds, "B"),
        "open.read_segment_s": (st("open", "read_segment") / o, "s"),
        "open.decode_s": (st("open", "decode") / o, "s"),
        "open.checksum_s": (st("open", "checksum") / o, "s"),
        "open.containers_read": (calls.get(("open", "read_segment"), 0) / o, "count"),
        "recover.wal_scan_s": (st("recover", "wal_scan") / v, "s"),
        "recover.replayed_batches": (layer.get("recover.replayed_batches", 0.0) / v, "count"),
        "recover.quarantined": (layer.get("recover.quarantined", 0.0) / v, "count"),
        "agg.build_s": (st("agg_serial", "update_batch") / aggs, "s"),
        "agg.merge_s": (st("agg_serial", "merge") / aggs, "s"),
        "agg.encode_s": (
            (st("agg_serial", "encode") + st("agg_serial", "checksum", parent="encode")) / aggs,
            "s",
        ),
        "agg.decode_s": (
            (st("agg_serial", "decode") + st("agg_serial", "checksum", parent="decode")) / aggs,
            "s",
        ),
        "agg.merges": (layer.get("agg.merges", 0.0) / aggs, "count"),
        "agg.waves": (counts.get(("agg_parallel", "waves"), 0.0) / aggs, "count"),
        "agg.groups": (counts.get(("agg_parallel", "groups"), 0.0) / aggs, "count"),
        "agg.max_size": (layer.get("agg.max_size", 0.0), "count"),
        "runtime.dispatch_rounds": (layer.get("runtime.dispatch_rounds", 0.0) / aggs, "count"),
        "runtime.messages_sent": (layer.get("runtime.messages_sent", 0.0) / aggs, "count"),
        "runtime.pipe_bytes": (layer.get("runtime.pipe_bytes", 0.0) / aggs, "B"),
        "runtime.shm_bytes": (layer.get("runtime.shm_bytes", 0.0) / aggs, "B"),
        "trace.overhead_pct": (overhead, "%"),
    }
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}


def machine_stamp(store_dir: str) -> dict:
    """Where a result came from: CPUs, Python, numpy, filesystem, flush policy."""
    import numpy as np

    import lifecycle

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs_type = "unknown"
    try:
        best = ""
        real = os.path.realpath(store_dir)
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (real == mount or real.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, fs_type = mount, fields[2]
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "store_fs": fs_type,
        "wal_fsync_every": lifecycle.WAL_FSYNC_EVERY,
        "parallel_workers": lifecycle.PARALLEL_WORKERS,
    }


def stop_children() -> None:
    """Wait for every process the run started, the resource tracker too.

    Worker pools and the worker runtime are forked children and are
    joined here.  Shared memory also starts ``multiprocessing``'s
    resource tracker, a process that outlives its starter unless told to
    stop: it is started by :func:`run` before the first fork, so one
    tracker serves the process and all its workers, and stopped here by
    closing its pipe and waiting until it has drained and exited.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join()
    resource_tracker._resource_tracker._stop()


def run(workload_name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run rounds for ``seconds``; return the result object (not printed)."""
    from multiprocessing import resource_tracker

    import lifecycle
    import oracle
    from spans import install_library_spans

    workload = lifecycle.WORKLOADS[workload_name]
    if toy:
        workload = lifecycle.toy(workload)
    work_root = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(work_root, exist_ok=True)
    untraced, traced = [], []
    correct = True
    attempted = failed = 0
    start = time.perf_counter()
    try:
        resource_tracker.ensure_running()
        # warm-up: imports, lazy set-up and first-touch allocations happen
        # here, untimed and uncounted
        warm = os.path.join(work_root, "warm-up")
        os.makedirs(warm)
        lifecycle.run_round(lifecycle.toy(workload), seed, warm, lifecycle.Recorder())
        shutil.rmtree(warm)
        index = 0
        while True:
            rec = lifecycle.Recorder(traced=trace and index % 2 == 1)
            tracer = rec.tracer
            if tracer is not None:
                install_library_spans(tracer)
            workdir = os.path.join(work_root, f"round-{index}")
            os.makedirs(workdir)
            try:
                lifecycle.run_round(workload, seed, workdir, rec)
            except oracle.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
            finally:
                if tracer is not None:
                    tracer.unwrap_all()
                shutil.rmtree(workdir, ignore_errors=True)
                lifecycle.settle(work_root)
            attempted += rec.attempted
            failed += rec.failed
            (traced if tracer is not None else untraced).append((rec, tracer))
            index += 1
            if not correct:
                break
            # start another round only if it should end within the budget
            elapsed = time.perf_counter() - start
            enough = len(traced) >= 1 if trace else True
            if enough and elapsed + elapsed / index > seconds:
                break
        stamp = machine_stamp(work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        stop_children()
    if not correct:
        metrics = {}
    elif trace:
        metrics = per_layer(traced, [rec for rec, _ in untraced])
    else:
        metrics = end_to_end([rec for rec, _ in untraced])
    return {
        "machine": stamp,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lifecycle = _import_library()
    if args.workload not in lifecycle.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(lifecycle.WORKLOADS)}")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine " + json.dumps(out["machine"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
