"""In-memory spans around calls into the library's public functions.

The benchmark's traced run replaces selected functions *at the name the
calling module looks up* (``repro.store.persistence.encode_summary``,
``SegmentStore.compact``, ...) with a wrapper that records one span per
call: its name, start, end and parent.  Spans stay in memory; at the end
:meth:`Tracer.self_times` turns them into self times (a span's duration
minus the part of it that its child spans cover), keyed by the phase the
benchmark was in when the call happened.

Nothing here is imported by the library, and an untraced run never
installs a wrapper, so the end-to-end numbers measure the program as it
ships.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

from repro.core.fsio import RealFilesystem


class Tracer:
    """Span recorder for one client's call stack (no threads).

    A span is ``[name, phase, t0, t1, parent_index]``.  ``phase`` is the
    innermost benchmark phase open when the span started (``"ingest"``,
    ``"save"``, ...), so one library function — ``merge_many``, say —
    is charged to compaction, query or ingest depending on who called it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        # the benchmark passes cpu_seconds; tests pass a fake clock
        self._clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._phase: List[str] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._restore: List[Tuple[Any, str, Any]] = []

    @property
    def phase(self) -> str:
        return self._phase[-1] if self._phase else ""

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, self._clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def enter_phase(self, phase: str) -> None:
        self._phase.append(phase)

    def exit_phase(self) -> None:
        self._phase.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is the module or class the caller looks the name up
        on; the original is put back by :meth:`unwrap_all`.
        """
        # a class's own dict holds the plain function (not a bound method)
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------

    def self_times(self) -> Dict[Tuple[str, str, str], float]:
        """``(phase, name, parent name) -> summed self seconds``.

        Children of one span never overlap (one client, one call stack),
        so the covered part of a span is the sum of its children's
        durations.  The parent's name lets a caller charge a shared
        callee (``state_checksum`` under encode or under decode) to the
        layer that called it.
        """
        covered = [0.0] * len(self.spans)
        for _name, _phase, t0, t1, parent in self.spans:
            if t1 is not None and parent >= 0:
                covered[parent] += t1 - t0
        totals: Dict[Tuple[str, str, str], float] = defaultdict(float)
        for index, (name, phase, t0, t1, parent) in enumerate(self.spans):
            if t1 is None:
                continue
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            totals[(phase, name, parent_name)] += (t1 - t0) - covered[index]
        return dict(totals)

    def calls(self) -> Dict[Tuple[str, str], int]:
        """``(phase, name) -> number of closed spans``."""
        totals: Dict[Tuple[str, str], int] = defaultdict(int)
        for name, phase, _t0, t1, _parent in self.spans:
            if t1 is not None:
                totals[(phase, name)] += 1
        return dict(totals)


def cpu_seconds() -> float:
    """CPU seconds of this process and of its reaped child processes.

    The benchmark times every phase with this clock.  Unlike the wall
    clock it does not count time the process was ready to run but had
    no CPU: on a shared virtual machine, CPU stolen by neighbours made
    the wall-clock time of the same phase differ by up to 1.7x between
    runs.  It also leaves out time blocked on the storage device, which
    the traced run reports as part of ``save.fsync_s``.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class CountingFilesystem(RealFilesystem):
    """The real filesystem, with spans and counts on writes and fsyncs.

    Passed through the library's ``fs=`` seam in traced rounds only, so
    fsync counts, bytes written and the wall time fsyncs spend waiting
    for the device come from the calls the durability code makes.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def write(self, handle, data: bytes) -> None:
        self._tracer.count("bytes_written", len(data))
        super().write(handle, data)

    def _sync(self, fn, arg) -> None:
        self._tracer.count("fsyncs")
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            self._tracer.call("fsync", fn, arg)
        finally:
            waited = (time.perf_counter() - wall) - (time.process_time() - cpu)
            self._tracer.count("fsync_wait_s", waited)

    def fsync(self, handle) -> None:
        self._sync(super().fsync, handle)

    def fsync_dir(self, path: str) -> None:
        self._sync(super().fsync_dir, path)


def install_library_spans(tracer: Tracer) -> None:
    """Wrap every library function the per-layer metrics time.

    Each entry is ``(owner, attribute, span name)``; the owner is the
    module whose global the caller resolves, or the class whose method
    it calls, so the wrapper sees exactly the calls of that layer.
    """
    import repro.core.codecs as codecs
    import repro.distributed.node as node
    import repro.distributed.simulator as simulator
    import repro.engine.executor as executor
    import repro.store.chain as chain
    import repro.store.common as common
    import repro.store.cube as cube
    import repro.store.persistence as persistence
    import repro.store.store as store
    from repro.core.base import Summary
    from repro.frequency.misra_gries import MisraGries
    from repro.quantiles.kll import KLLQuantiles
    from repro.quantiles.moments import MomentSketch
    from repro.store.wal import WriteAheadLog

    targets = [
        (common, "normalize_batch", "normalize_batch"),
        (common.StoreBase, "ingest", "ingest"),
        (WriteAheadLog, "append", "wal_append"),
        (store, "build_members", "build_members"),
        (cube, "build_members", "build_members"),
        (store, "merged_segment", "merged_segment"),
        (cube, "merged_segment", "merged_segment"),
        (store.SegmentStore, "compact", "compact"),
        (cube.CubeStore, "compact", "compact"),
        (chain, "execute_plan", "execute_plan"),
        (chain.EpochChain, "plan", "plan"),
        (Summary, "merge", "merge"),
        (Summary, "merge_many", "merge"),
        (persistence, "encode_summary", "encode"),
        (persistence, "write_segment", "write_segment"),
        (persistence, "read_segment", "read_segment"),
        (persistence, "decode_summary", "decode"),
        (persistence, "scan_wal", "wal_scan"),
        (codecs, "state_checksum", "checksum"),
        (node, "encode_summary", "encode"),
        (node, "decode_summary", "decode"),
        (executor, "decode_summary", "decode"),
    ]
    for cls in (MisraGries, KLLQuantiles, MomentSketch):
        targets.append((cls, "update_batch", "update_batch"))
    for owner, attr, name in targets:
        tracer.wrap(owner, attr, name)

    # the engine report behind each aggregation (waves and groups are
    # not copied onto AggregationResult)
    original = simulator.execute_plan

    @functools.wraps(original)
    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        tracer.count("waves", result.report.waves)
        tracer.count("groups", result.report.groups)
        return result

    simulator.execute_plan = capture
    tracer._restore.append((simulator, "execute_plan", original))
