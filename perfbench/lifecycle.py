"""The three workloads: inputs, one round of each, and what a round measures.

Every workload runs the same pipeline on its own inputs, one client in a
closed loop (each call waits for the last):

1. *set-up* — generate the inputs from the seed (``repro.workloads``)
   and build the starting state (the store and its write-ahead log);
2. *store lifecycle* — ingest → compact → query → save → open → WAL
   tail → recover, on a ``SegmentStore`` or a live ``CubeStore``;
3. *merge tree* — ``run_aggregation`` to the root for two summary
   families: serially, on a per-wave worker pool with the wire format
   (``serialize=True``), and on the resident worker runtime
   (``serialize=False``).

The workloads differ in which part carries the weight: ``store_bulk``
puts 2^17 records through few, large segments; ``cube_live`` writes
many tiny cells between dashboard queries; ``merge_tree`` aggregates
2^20 items over 256 leaves.  Each also runs the other parts at a small
size, so that every end-to-end metric exists on every workload.

A round ends with its outputs checked against :mod:`oracle`; a failed
check raises and the run reports ``correct: false``.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.distributed import ContiguousPartitioner, balanced_tree, run_aggregation
from repro.frequency.misra_gries import MisraGries
from repro.quantiles.kll import KLLQuantiles
from repro.store import CubeStore, SegmentStore
from repro.workloads import value_stream, zipf_stream

import oracle
from spans import CountingFilesystem, Tracer, cpu_seconds

#: WAL flush policy of every workload: fsync after every ingest call
WAL_FSYNC_EVERY = 1
#: worker count of the parallel aggregation
PARALLEL_WORKERS = min(2, os.cpu_count() or 1)
QUERY_QS = oracle.QUANTILE_QS


# ---------------------------------------------------------------------------
# Measurement bookkeeping
# ---------------------------------------------------------------------------


class Recorder:
    """Samples, operation counts and, in a traced round, the tracer.

    Phases and spans are timed in CPU seconds of the process and its
    reaped children (:func:`spans.cpu_seconds`).
    """

    def __init__(self, traced: bool = False) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.layer: Dict[str, float] = {}
        self.entries: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.tracer: Optional[Tracer] = None
        self.fs: Optional[CountingFilesystem] = None
        if traced:
            self.tracer = Tracer(clock=cpu_seconds)
            self.fs = CountingFilesystem(self.tracer)
        self.work_s = 0.0

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(float(value))

    def add(self, name: str, value: float) -> None:
        """Accumulate a per-layer figure read from a program report."""
        self.layer[name] = self.layer.get(name, 0.0) + float(value)

    @contextmanager
    def phase(self, name: str):
        """Time one benchmark phase; in a traced round, also label spans."""
        self.entries[name] = self.entries.get(name, 0) + 1
        if self.tracer is not None:
            self.tracer.enter_phase(name)
        clock = _Clock()
        t0 = cpu_seconds()
        try:
            yield clock
        finally:
            clock.seconds = cpu_seconds() - t0
            if name != "setup":
                self.work_s += clock.seconds
            if self.tracer is not None:
                self.tracer.exit_phase()

    def answer(self, fn: Callable, *args):
        """Call a summary's answer method, as a span in a traced round."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call("answer", fn, *args)

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


class _Clock:
    seconds = 0.0


def settle(*dirs: str) -> None:
    """Start the next timed phase from the same state in every round.

    Collects garbage, so that no phase pays for cycles an earlier phase
    left, and fsyncs ``dirs``, so that no fsync inside the phase pays for
    directory changes the benchmark itself made and never synced.
    """
    for path in dirs:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    gc.collect()


def link_copy(src: str, dst: str) -> None:
    """Copy a store directory as hard links (committed files are never
    rewritten in place, so the copy cannot change the original)."""
    shutil.copytree(src, dst, copy_function=os.link)
    settle(os.path.dirname(dst), *(root for root, _dirs, _files in os.walk(dst)))


def dir_bytes(path: str) -> int:
    """Bytes of a committed snapshot on disk (the WAL excluded)."""
    total = 0
    for root, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if d != "wal"]
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoreShape:
    """Sizes of the flat-store lifecycle."""

    records: int
    epochs: int
    batch: int
    queries: int
    saves: int
    opens: int
    recovers: int
    tail: int
    #: lifecycles per round, each on its own store: a set-up's, or past
    #: SETUP_REPEATS an empty one made untimed
    lifecycles: int = 1
    mg_k: int = 64
    kll_k: int = 128


@dataclass(frozen=True)
class CubeShape:
    """Sizes of the live-cube loop."""

    epochs: int
    per_epoch: int
    countries: int
    devices: int
    late_share: float
    max_lag: int
    checkpoint_every: int
    window: int
    window_eps: float
    budget: int
    opens: int
    recovers: int
    moment_k: int = 10
    mg_k: int = 32


@dataclass(frozen=True)
class TreeShape:
    """Sizes of the aggregation tree."""

    items: int
    leaves: int
    zipf_alpha: float
    universe: int
    repeats: int
    mg_k: int = 256
    kll_k: int = 200


@dataclass(frozen=True)
class Workload:
    name: str
    store: Optional[StoreShape]
    cube: Optional[CubeShape]
    tree: TreeShape


WORKLOADS = {
    "store_bulk": Workload(
        "store_bulk",
        store=StoreShape(
            records=1 << 17, epochs=256, batch=4096, queries=160,
            saves=2, opens=3, recovers=2, tail=4096,
        ),
        cube=None,
        tree=TreeShape(items=1 << 17, leaves=256, zipf_alpha=1.2,
                       universe=5000, repeats=3),
    ),
    "cube_live": Workload(
        "cube_live",
        store=None,
        cube=CubeShape(
            epochs=40, per_epoch=256, countries=6, devices=2,
            late_share=0.1, max_lag=3, checkpoint_every=10, window=16,
            window_eps=0.25, budget=600, opens=2, recovers=2,
        ),
        # the merge tree aggregates the cube's own events
        tree=TreeShape(items=40 * 256, leaves=64, zipf_alpha=1.2,
                       universe=1000, repeats=2),
    ),
    "merge_tree": Workload(
        "merge_tree",
        store=StoreShape(
            records=1 << 14, epochs=16, batch=2048, queries=60,
            saves=3, opens=3, recovers=3, tail=1024, lifecycles=6,
        ),
        cube=None,
        tree=TreeShape(items=1 << 20, leaves=256, zipf_alpha=1.1,
                       universe=1_000_000, repeats=2),
    ),
}


def toy(workload: Workload) -> Workload:
    """A seconds-long version of ``workload`` for the smoke tests."""
    store = workload.store and StoreShape(
        records=2048, epochs=16, batch=512, queries=12, saves=2,
        opens=1, recovers=1, tail=256, lifecycles=workload.store.lifecycles,
    )
    cube = workload.cube and CubeShape(
        epochs=8, per_epoch=64, countries=3, devices=2, late_share=0.2,
        max_lag=2, checkpoint_every=4, window=4, window_eps=0.5,
        budget=60, opens=1, recovers=1,
    )
    tree = TreeShape(items=4096, leaves=8, zipf_alpha=workload.tree.zipf_alpha,
                     universe=500, repeats=1)
    return Workload(workload.name, store=store, cube=cube, tree=tree)


# ---------------------------------------------------------------------------
# Shared phases: open, recover, aggregate
# ---------------------------------------------------------------------------


def _count_ingest(rec: Recorder, counters: Dict[str, int], replaced: str, seconds: float) -> None:
    rec.op()
    rec.sample("ingest_rps", counters["records"] / seconds)
    rec.add("ingest.records", counters["records"])
    rec.add("ingest.units_replaced", counters[replaced])
    rec.add("ingest.rollups_invalidated", counters["rollups_invalidated"])


def state_digest(store) -> str:
    """The logical state ``fingerprint()`` covers, stable across calls.

    A cube's ``fingerprint()`` is used as is.  A flat store's leaves out
    the ``seed`` that ``KLLQuantiles.to_dict`` draws afresh from the
    sketch's RNG on every call (which makes ``fingerprint()`` itself
    differ from call to call; :func:`fingerprint_probe` counts that).
    """
    if isinstance(store, CubeStore):
        return store.fingerprint()
    state = {
        "records": store.records,
        "wal_seq": store.wal_seq,
        "schema": {name: spec.to_dict() for name, spec in sorted(store.schema.items())},
        "segments": [
            [
                segment.meta(),
                {
                    name: {k: v for k, v in summary.to_dict().items() if k != "seed"}
                    for name, summary in sorted(segment.members.items())
                },
            ]
            for segment in store.segments()
        ],
    }
    return json.dumps(state, sort_keys=True)


def fingerprint_probe(workdir: str, rec: Recorder) -> None:
    """Save and open a fixed four-epoch store with a KLL member; one operation.

    The operation succeeds when the opened store's ``fingerprint()``
    equals the live store's.  Its inputs do not depend on the seed.
    """
    rng = np.random.default_rng(0)
    store = SegmentStore(width=64)
    store.add_member("freq", "misra_gries", field="item", k=16)
    store.add_member("lat", "kll_quantiles", field="value", k=16, rng=0)
    store.ingest(
        {"item": int(a), "value": float(b)}
        for a, b in zip(rng.integers(0, 50, 256).tolist(), rng.random(256).tolist())
    )
    path = os.path.join(workdir, "probe")
    store.save(path)
    rec.op(ok=SegmentStore.open(path).fingerprint() == store.fingerprint())


def _open_phase(cls, snap: str, live: str, count: int, rec: Recorder) -> None:
    for _ in range(count):
        settle()
        with rec.phase("open") as clock:
            opened = cls.open(snap, fs=rec.fs)
        rec.op()
        rec.sample("open_s", clock.seconds)
        oracle.check(
            state_digest(opened) == live,
            f"{cls.__name__}.open: state differs from the live store",
        )


def _recover_phase(cls, snap: str, live: str, count: int, rec: Recorder) -> None:
    """``recover()`` a copy of snapshot + WAL tail; state must match live."""
    for attempt in range(count):
        copy = f"{snap}-recover{attempt}"
        link_copy(snap, copy)
        with rec.phase("recover") as clock:
            recovered, report = cls.recover(copy, fs=rec.fs)
        rec.op()
        rec.sample("recover_s", clock.seconds)
        rec.add("recover.replayed_batches", report.wal_records_replayed)
        rec.add(
            "recover.quarantined",
            len(report.wal_quarantined) + len(report.segments_quarantined),
        )
        oracle.check(report.wal_records_replayed > 0, "recover: no WAL tail replayed")
        oracle.check(
            state_digest(recovered) == live,
            f"{cls.__name__}.recover: state differs from the live store",
        )
        shutil.rmtree(copy)


def _aggregation_families(tree: TreeShape, items: np.ndarray, values: np.ndarray, seed: int):
    mg_k, kll_k = tree.mg_k, tree.kll_k
    base = (seed % 100_000) * 1000

    def kll_factory(i):
        return KLLQuantiles(kll_k, rng=base + i)

    return [
        ("misra_gries", items, lambda: MisraGries(mg_k), mg_k),
        ("kll_quantiles", values, kll_factory, kll_k),
    ]


def _check_root(family: str, root, data: np.ndarray, k: int) -> None:
    name = f"aggregation root ({family})"
    oracle.check_n(name, root.n, len(data))
    if family == "misra_gries":
        oracle.check_misra_gries(name, root.counters(), data, k)
    else:
        oracle.check_rank_answers(
            name, np.asarray(data, dtype=np.float64), QUERY_QS, root.quantiles(QUERY_QS),
            oracle.KLL_EPS_PER_K / k,
        )


#: (metric prefix, executor, serialize) of each aggregation mode; the
#: resident worker runtime is used only when serialize is False, so the
#: serialized parallel run uses the per-wave pool
AGG_MODES = (
    ("agg_serial", None, True),
    ("agg_parallel", PARALLEL_WORKERS, True),
    ("agg_runtime", PARALLEL_WORKERS, False),
)


def aggregate_calls(families, tree: TreeShape, repeats: int, rec: Recorder):
    """``repeats`` times ``run_aggregation`` of each family to the root in
    every mode; a generator that yields after every call, so that the
    caller can spread the calls over the round."""
    for _ in range(repeats):
        roots = {}
        wire = 0
        for mode, executor, serialize in AGG_MODES:
            total = 0.0
            for family, data, factory, k in families:
                settle()
                with rec.phase(mode) as clock:
                    result = run_aggregation(
                        data,
                        ContiguousPartitioner(),
                        factory,
                        balanced_tree(tree.leaves),
                        serialize=serialize,
                        executor=executor,
                    )
                total += clock.seconds
                degraded = bool(result.degraded_to_serial)
                rec.op(ok=not degraded)
                stamp = json.dumps(result.summary.to_dict(), sort_keys=True)
                if mode == "agg_serial":
                    _check_root(family, result.summary, data, k)
                    roots[family] = stamp
                    wire += result.bytes_shipped
                    rec.add("agg.merges", result.merges)
                    rec.layer["agg.max_size"] = max(
                        rec.layer.get("agg.max_size", 0.0),
                        float(result.max_size_en_route),
                    )
                else:
                    oracle.check(
                        stamp == roots[family],
                        f"aggregation ({family}, {mode}): root differs from serial",
                    )
                if mode == "agg_runtime":
                    stats = result.runtime_stats or {}
                    rec.add("runtime.dispatch_rounds", stats.get("dispatch_rounds", 0))
                    rec.add("runtime.messages_sent", stats.get("messages_sent", 0))
                    rec.add(
                        "runtime.pipe_bytes",
                        stats.get("cmd_bytes", 0) + stats.get("ack_bytes", 0),
                    )
                    rec.add(
                        "runtime.shm_bytes",
                        stats.get("exported_bytes", 0) + stats.get("sync_shm_bytes", 0),
                    )
                del result
                yield
            rec.sample(f"{mode}_s", total)
        rec.sample("wire_bytes", wire)


# ---------------------------------------------------------------------------
# The flat store: bulk ingest → compact → cold sweep → save → open → recover
# ---------------------------------------------------------------------------


@dataclass
class StoreInputs:
    items: np.ndarray
    values: np.ndarray
    records: list
    ranges: list


def make_store_inputs(shape: StoreShape, items: np.ndarray, values: np.ndarray, seed: int) -> StoreInputs:
    total = shape.records + shape.tail
    items, values = items[:total], values[:total]
    records = [
        {"item": int(a), "value": float(b)}
        for a, b in zip(items.tolist(), values.tolist())
    ]
    # distinct epoch ranges [lo, hi), so each query is cold.  Query i's
    # length is drawn from the i-th of `queries` equal strata of 1..epochs,
    # so every seed asks the same mix of short and long ranges (a query's
    # cost follows its length); positions and order are random
    rng = np.random.default_rng([seed, 7])
    epochs = shape.epochs
    used = set()
    for i in range(shape.queries):
        length = min(epochs, int((i + rng.random()) * epochs / shape.queries) + 1)
        free = []
        while not free:
            free = [lo for lo in range(epochs - length + 1) if (lo, lo + length) not in used]
            length -= not free
        lo = free[int(rng.integers(len(free)))]
        used.add((lo, lo + length))
    ranges = [tuple(p) for p in rng.permutation(sorted(used)).tolist()]
    return StoreInputs(items, values, records, ranges)


def new_store(shape: StoreShape, seed: int, snap: str, rec: Recorder) -> SegmentStore:
    store = SegmentStore(width=shape.records // shape.epochs)
    store.add_member("freq", "misra_gries", field="item", k=shape.mg_k)
    store.add_member("lat", "kll_quantiles", field="value", k=shape.kll_k, rng=seed)
    store.enable_wal(os.path.join(snap, "wal"), fsync_every=WAL_FSYNC_EVERY, fs=rec.fs)
    return store


def store_lifecycle(shape: StoreShape, inputs: StoreInputs, store: SegmentStore, snap: str, rec: Recorder) -> None:
    width = shape.records // shape.epochs

    def ingest(lo: int, hi: int) -> None:
        settle()
        for start in range(lo, hi, shape.batch):
            with rec.phase("ingest") as clock:
                counters = store.ingest(inputs.records[start:min(hi, start + shape.batch)])
            _count_ingest(rec, counters, "segments_replaced", clock.seconds)

    ingest(0, shape.records)

    settle()
    with rec.phase("compact") as clock:
        counters = store.compact()
    rec.op()
    rec.sample("compact_s", clock.seconds)
    rec.add("compact.rollups_built", counters["rollups_built"])

    settle()
    for lo, hi in inputs.ranges:
        with rec.phase("query") as clock:
            result = store.query(lo * width, hi * width)
            counters = rec.answer(result["freq"].counters)
            quantiles = rec.answer(result["lat"].quantiles, QUERY_QS)
        rec.op()
        rec.sample("query_us", clock.seconds * 1e6)
        rec.add("query.fan_in", result.plan.fan_in)
        name = f"store query [{lo}, {hi})"
        part = slice(lo * width, hi * width)
        oracle.check_n(name, result.n, part.stop - part.start)
        oracle.check_n(name + " freq", result["freq"].n, part.stop - part.start)
        oracle.check_misra_gries(name, counters, inputs.items[part], shape.mg_k)
        oracle.check_rank_answers(
            name, inputs.values[part], QUERY_QS, quantiles,
            oracle.KLL_EPS_PER_K / shape.kll_k,
        )
    views = store.stats()["view_cache"]
    rec.add("query.view_hits", views["hits"])
    rec.add("query.view_lookups", views["hits"] + views["misses"])

    # the first save commits the snapshot the WAL belongs to; the others
    # are the same full save into fresh directories
    for attempt in range(shape.saves):
        target = snap if attempt == 0 else f"{snap}-save{attempt}"
        settle()
        with rec.phase("save") as clock:
            report = store.save(target, fs=rec.fs)
        rec.op()
        rec.sample("save_s", clock.seconds)
        rec.add("save.containers_written", report["written"])
        if attempt:
            shutil.rmtree(target)
            settle(os.path.dirname(target))
    rec.layer["save.manifest_bytes"] = float(os.path.getsize(os.path.join(snap, "manifest.json")))
    rec.sample("bytes_per_record", dir_bytes(snap) / store.records)

    _open_phase(SegmentStore, snap, state_digest(store), shape.opens, rec)

    ingest(shape.records, shape.records + shape.tail)
    _recover_phase(SegmentStore, snap, state_digest(store), shape.recovers, rec)
    store.wal.close()


# ---------------------------------------------------------------------------
# The live cube: late-arriving batches between dashboard queries
# ---------------------------------------------------------------------------


@dataclass
class CubeInputs:
    country: np.ndarray
    device: np.ndarray
    latency: np.ndarray
    page: np.ndarray
    keys: np.ndarray
    epoch: np.ndarray
    records: list


COUNTRY_NAMES = ["US", "DE", "IN", "BR", "JP", "FR", "GB", "NG"]
DEVICE_NAMES = ["android", "ios", "web", "tv"]


def make_cube_inputs(shape: CubeShape, seed: int) -> CubeInputs:
    total = shape.epochs * shape.per_epoch
    rng = np.random.default_rng([seed, 11])
    weights = 1.0 / np.arange(1, shape.countries + 1)
    country = rng.choice(shape.countries, size=total, p=weights / weights.sum())
    device = rng.integers(0, shape.devices, size=total)
    latency = value_stream(total, "lognormal", rng=rng)
    page = zipf_stream(total, alpha=1.2, universe=1000, rng=rng)
    arrival = np.repeat(np.arange(shape.epochs), shape.per_epoch)
    late = rng.random(total) < shape.late_share
    lag = rng.integers(1, shape.max_lag + 1, size=total)
    epoch = np.where(late, np.maximum(arrival - lag, 0), arrival)
    keys = epoch + rng.random(total)
    records = [
        {
            "country": COUNTRY_NAMES[c],
            "device": DEVICE_NAMES[d],
            "latency": float(l),
            "page": int(p),
        }
        for c, d, l, p in zip(country.tolist(), device.tolist(), latency.tolist(), page.tolist())
    ]
    return CubeInputs(country, device, latency, page, keys, epoch, records)


def new_cube(shape: CubeShape, snap: str, rec: Recorder) -> CubeStore:
    cube = CubeStore(width=1.0, dims=("country", "device"))
    cube.add_member("lat", "moment_sketch", field="latency", k=shape.moment_k)
    cube.add_member("page", "misra_gries", field="page", k=shape.mg_k)
    cube.enable_wal(os.path.join(snap, "wal"), fsync_every=WAL_FSYNC_EVERY, fs=rec.fs)
    return cube


def cube_lifecycle(shape: CubeShape, inputs: CubeInputs, cube: CubeStore, snap: str, rec: Recorder) -> None:
    dashboard = [{"group_by": []}, {"group_by": ["country"]}, {"where": ["country"]}]

    def query(label: str, check, **kwargs) -> None:
        with rec.phase("query") as clock:
            result = cube.query(**kwargs)
            for members in result.groups.values():
                rec.answer(members["lat"].quantiles, QUERY_QS)
                rec.answer(members["page"].counters)
        rec.op()
        rec.sample("query_us", clock.seconds * 1e6)
        rec.add("query.fan_in", result.plan.cells_merged)
        rec.add("query.stale_epochs", result.plan.stale_epochs)
        if "window" in kwargs:
            rec.add("query.window_queries", 1)
            rec.add("query.window_slack_epochs", result.plan.window_slack_used)
        check(label, result)

    per = shape.per_epoch
    total_batches = shape.epochs
    # the checkpoints of a round grow, so a pooled median over them would
    # fall between two and jump; the round gives one sample, their mean
    checkpoints: Dict[str, List[float]] = {"compact_s": [], "save_s": []}
    settle()
    for batch in range(total_batches - 1):
        part = slice(batch * per, (batch + 1) * per)
        with rec.phase("ingest") as clock:
            counters = cube.ingest(inputs.records[part], keys=inputs.keys[part].tolist())
        _count_ingest(rec, counters, "cells_replaced", clock.seconds)

        seen = slice(0, part.stop)
        now = int(inputs.epoch[seen].max()) + 1

        def check_total(label, result, seen=seen):
            (members,) = result.groups.values()
            oracle.check_moment_sketch(label + " lat", members["lat"], inputs.latency[seen])
            oracle.check_n(label + " page", members["page"].n, seen.stop)
            oracle.check_misra_gries(label, members["page"].counters(), inputs.page[seen], shape.mg_k)

        def check_groups(label, result, seen=seen):
            countries = inputs.country[seen]
            oracle.check_group_keys(
                label, result.keys(), {(COUNTRY_NAMES[c],) for c in np.unique(countries).tolist()}
            )
            for (name,), members in result.groups.items():
                mask = countries == COUNTRY_NAMES.index(name)
                oracle.check_moment_sketch(f"{label} {name}", members["lat"], inputs.latency[seen][mask])

        focus = COUNTRY_NAMES[batch % shape.countries]

        def check_window(label, result, seen=seen, now=now, focus=focus):
            mask = inputs.country[seen] == COUNTRY_NAMES.index(focus)
            (members,) = result.groups.values()
            oracle.check_window_n(
                label, members["lat"].n, inputs.epoch[seen][mask],
                now - shape.window, now, int(shape.window_eps * shape.window),
            )

        query("cube grand total", check_total, lo=0.0, hi=float(now))
        query("cube group_by country", check_groups, lo=0.0, hi=float(now), group_by=["country"])
        query(
            f"cube window where country={focus}", check_window,
            where={"country": focus}, window=float(shape.window), window_eps=shape.window_eps,
        )

        if (batch + 1) % shape.checkpoint_every == 0 or batch == total_batches - 2:
            settle()
            with rec.phase("compact") as clock:
                counters = cube.compact(budget=shape.budget, workload=dashboard)
            rec.op()
            checkpoints["compact_s"].append(clock.seconds)
            rec.add("compact.rollups_built", counters["dim_cells_built"] + counters["time_rollups_built"])
            settle()
            with rec.phase("save") as clock:
                report = cube.save(snap, fs=rec.fs)
            rec.op()
            checkpoints["save_s"].append(clock.seconds)
            rec.add("save.containers_written", report["written"])
    for metric, values in checkpoints.items():
        rec.sample(metric, sum(values) / len(values))
    rec.layer["save.manifest_bytes"] = float(os.path.getsize(os.path.join(snap, "manifest.json")))
    rec.sample("bytes_per_record", dir_bytes(snap) / cube.records)
    views = cube.stats()["view_cache"]
    rec.add("query.view_hits", views["hits"])
    rec.add("query.view_lookups", views["hits"] + views["misses"])

    _open_phase(CubeStore, snap, state_digest(cube), shape.opens, rec)

    # the last batch is the WAL tail: logged, never checkpointed
    tail = slice((total_batches - 1) * per, total_batches * per)
    settle()
    with rec.phase("ingest") as clock:
        counters = cube.ingest(inputs.records[tail], keys=inputs.keys[tail].tolist())
    _count_ingest(rec, counters, "cells_replaced", clock.seconds)
    _recover_phase(CubeStore, snap, state_digest(cube), shape.recovers, rec)
    cube.wal.close()


# ---------------------------------------------------------------------------
# One round of a workload
# ---------------------------------------------------------------------------


#: set-ups per round; ``setup_s`` is the median over all of a run's
SETUP_REPEATS = 3


def setup(workload: Workload, seed: int, snap: str, rec: Recorder):
    """Generate the round's inputs and build the starting state."""
    tree = workload.tree
    if workload.cube is not None:
        inputs = make_cube_inputs(workload.cube, seed)
        state = new_cube(workload.cube, snap, rec)
        return inputs, state, inputs.page[: tree.items], inputs.latency[: tree.items]
    need = max(tree.items, workload.store.records + workload.store.tail)
    items = zipf_stream(need, alpha=tree.zipf_alpha, universe=tree.universe, rng=seed)
    values = value_stream(need, "uniform", rng=seed + 1)
    inputs = make_store_inputs(workload.store, items, values, seed)
    state = new_store(workload.store, seed, snap, rec)
    # merge_tree's quantile family summarizes the Zipf items themselves
    agg_values = items if workload.name == "merge_tree" else values
    return inputs, state, items[: tree.items], agg_values[: tree.items].astype(np.float64)


def run_round(workload: Workload, seed: int, workdir: str, rec: Recorder) -> None:
    lifecycles = workload.store.lifecycles if workload.store is not None else 1
    kept = min(lifecycles, SETUP_REPEATS)
    states = []
    for attempt in range(SETUP_REPEATS):
        snap = os.path.join(workdir, f"setup{attempt}", "state")
        settle()
        with rec.phase("setup") as clock:
            inputs, state, agg_items, agg_values = setup(workload, seed, snap, rec)
        rec.sample("setup_s", clock.seconds)
        if attempt < SETUP_REPEATS - kept:
            state.wal.close()
            shutil.rmtree(os.path.dirname(snap))
            settle(workdir)
        else:
            states.append((snap, state))
    families = _aggregation_families(workload.tree, agg_items, agg_values, seed)
    calls = aggregate_calls(families, workload.tree, workload.tree.repeats, rec)
    total_calls = workload.tree.repeats * len(AGG_MODES) * len(families)
    # the aggregation calls are spread evenly between the lifecycles: the
    # storage and CPU contention of a shared machine shifts over seconds,
    # so each phase's samples are spread over the round
    done = 0
    for index in range(lifecycles):
        if states:
            snap, state = states.pop(0)
        else:
            # lifecycles beyond the set-ups start from an empty store of
            # their own, made untimed
            snap = os.path.join(workdir, f"lifecycle{index}", "state")
            state = new_store(workload.store, seed, snap, rec)
        if workload.cube is not None:
            cube_lifecycle(workload.cube, inputs, state, snap, rec)
        else:
            store_lifecycle(workload.store, inputs, state, snap, rec)
        # the worker pool forks this process once per wave: drop the
        # store, and after the last lifecycle the records, so the forks
        # do not copy the benchmark's own state
        del state
        if index == lifecycles - 1:
            del inputs
        until = total_calls * (index + 1) // lifecycles
        for _ in range(until - done):
            next(calls)
        done = until
    for _ in calls:  # records the samples of the last mode
        pass
    fingerprint_probe(workdir, rec)
