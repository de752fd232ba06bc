"""The driver side of ``executor_mode="cluster"``.

:class:`ClusterContext` keeps the whole :class:`~repro.runtime.context.
DistributedContext` surface -- plan building, shuffle planning, adaptive
execution, broadcast joins and metrics all run unchanged in the driver --
and replaces *task execution*: every fused stage chain that has a picklable
descriptor is shipped over the wire to a long-lived worker process instead
of running in the driver.

Scheduling model (deliberately simple, documented in DESIGN.md):

* partition ``i`` always runs on worker ``i % N`` -- deterministic placement
  is what makes resident partitions and shuffle-payload locality work
  without a placement table;
* each worker has one scheduler thread and a FIFO queue; requests on one
  control socket are strict request/response;
* map-side shuffle chains are sent as ``shuffle_write``: the worker keeps
  the produced bucket payloads and returns ``(bucket, record_count)``
  references.  Reduce tasks receive those references and read the records
  locally or from the producing worker's serve socket -- the driver routes
  descriptors only, so reduce-input bytes through the driver are zero (the
  ``driver_payload_bytes`` metric measures exactly this);
* failure handling is fail-fast: a worker that drops its socket, times out,
  or misses heartbeats marks the job with :class:`~repro.errors.
  WorkerLostError`.  There is no lineage or task retry -- lost state fails
  the computation promptly instead of hanging.
"""

from __future__ import annotations

import functools
import itertools
import os
import queue
import socket
import sys
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable

from repro.errors import ExecutionError, WorkerLostError
from repro.runtime import stage as stage_mod
from repro.runtime.cluster import protocol, wire
from repro.runtime.cluster import store as store_mod
from repro.runtime.cluster.store import RemotePayload
from repro.runtime.context import DistributedContext
from repro.runtime.spill import BucketPayload, approximate_size

#: Map-side writer functions whose payload outputs are captured on workers.
_WRITER_FUNCTIONS = (
    stage_mod.shuffle_write,
    stage_mod.salted_shuffle_write,
    stage_mod.repartition_write,
    stage_mod.prepartitioned_write,
)

#: How many distinct partition lists stay push-cached on the workers.
_PUSH_CACHE_CAPACITY = 16


class _RemoteTaskError(Exception):
    """Internal: a worker reported that the task itself failed."""

    def __init__(self, message: str, cause: BaseException | None, remote_traceback: str):
        super().__init__(message)
        self.cause = cause
        self.remote_traceback = remote_traceback


class _WorkerHandle:
    """Driver-side state for one registered worker: socket + scheduler."""

    def __init__(self, index: int, sock: socket.socket, serve_address: str, pid: int):
        self.index = index
        self.sock = sock
        self.serve_address = serve_address
        self.pid = pid
        self.lost: WorkerLostError | None = None
        self.busy = False
        self.queue: queue.Queue = queue.Queue()
        self.thread = threading.Thread(
            target=self._loop, name=f"cluster-worker-{index}", daemon=True
        )
        self.thread.start()

    def submit(self, frame: bytes, timeout: float | None) -> Future:
        """Queue one pre-encoded request frame; the future gets the response."""
        future: Future = Future()
        if self.lost is not None:
            future.set_exception(self.lost)
            return future
        self.queue.put((frame, timeout, future))
        return future

    def _loop(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            frame, timeout, future = item
            if self.lost is not None:
                future.set_exception(self.lost)
                continue
            self.busy = True
            try:
                self.sock.settimeout(timeout)
                protocol.send_frame(self.sock, frame)
                message_type, payload = protocol.recv_message(self.sock)
            except protocol.ConnectionClosed:
                self._mark_lost(future, "closed its connection")
                continue
            except TimeoutError:
                self._mark_lost(future, f"did not respond within {timeout:.0f}s")
                continue
            except (OSError, protocol.ProtocolError) as error:
                self._mark_lost(future, f"connection failed ({error})")
                continue
            finally:
                self.busy = False
            if message_type == protocol.ERROR:
                future.set_exception(
                    _RemoteTaskError(
                        payload.get("message", "task failed"),
                        payload.get("exception"),
                        payload.get("traceback", ""),
                    )
                )
            else:
                future.set_result((message_type, payload))

    def _mark_lost(self, future: Future, reason: str) -> None:
        """Fail this request, every queued request, and all future ones."""
        self.busy = False
        self.lost = WorkerLostError(
            f"cluster worker {self.index} (pid {self.pid}) {reason}"
        )
        self.sock.close()
        future.set_exception(self.lost)
        while True:
            try:
                item = self.queue.get_nowait()
            except queue.Empty:
                return
            if item is not None:
                item[2].set_exception(self.lost)

    def stop(self) -> None:
        self.queue.put(None)
        self.sock.close()


class _PushCache:
    """LRU of partition lists already resident on the workers.

    Holds *strong* references: partition lists cannot be weak-referenced,
    and a strong reference also pins the list's ``id`` so a recycled id can
    never alias a dead entry.  Eviction returns the freed data ids so the
    context can tell the workers to drop them.
    """

    def __init__(self, capacity: int = _PUSH_CACHE_CAPACITY):
        self.capacity = capacity
        self._entries: dict[int, tuple[int, list[list[Any]]]] = {}
        self._order: list[int] = []

    def lookup(self, partitions: list[list[Any]]) -> int | None:
        key = id(partitions)
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._order.remove(key)
        self._order.append(key)
        return entry[0]

    def insert(self, partitions: list[list[Any]], data_id: int) -> list[int]:
        """Register a freshly shipped list; returns evicted data ids."""
        key = id(partitions)
        self._entries[key] = (data_id, partitions)
        self._order.append(key)
        evicted: list[int] = []
        while len(self._order) > self.capacity:
            old_key = self._order.pop(0)
            evicted.append(self._entries.pop(old_key)[0])
        return evicted

    def clear(self) -> None:
        self._entries.clear()
        self._order.clear()


class ClusterContext(DistributedContext):
    """A :class:`DistributedContext` that executes stages on remote workers.

    With no ``cluster_address`` the context binds an ephemeral localhost
    port and spawns ``cluster_workers`` local worker subprocesses (via
    :class:`~repro.runtime.cluster.local.LocalCluster`).  With an address --
    passed explicitly or through ``DIABLO_CLUSTER_ADDRESS`` -- it binds that
    address and waits for externally started ``repro-worker`` processes to
    register.
    """

    #: Reduce passes must go through run_tasks even without spilling: the
    #: routed payloads are remote references that only workers should read.
    _reduce_in_tasks = True

    executor = "cluster"

    def __init__(
        self,
        num_partitions: int = 8,
        cluster_workers: int = 2,
        cluster_address: str | None = None,
        task_timeout: float = 300.0,
        heartbeat_interval: float = 5.0,
        register_timeout: float = 60.0,
        **kwargs: Any,
    ):
        super().__init__(num_partitions=num_partitions, **kwargs)
        if cluster_workers <= 0:
            raise ValueError("cluster_workers must be positive")
        self.cluster_workers = cluster_workers
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        if cluster_address is None:
            cluster_address = os.environ.get("DIABLO_CLUSTER_ADDRESS") or None
        self._local_cluster = None
        self._workers: list[_WorkerHandle] | None = None
        self._push_cache = _PushCache()
        self._data_ids = itertools.count(1)
        self._capture_ids = itertools.count(1)
        self._capture_stack: list[list[int]] = []
        self._stop_monitor = threading.Event()
        self._monitor_thread: threading.Thread | None = None
        self._start_cluster(cluster_address, register_timeout)

    @classmethod
    def from_config(cls, config: Any) -> "ClusterContext":
        """Build a cluster context from a :class:`~repro.api.DiabloConfig`."""
        return cls(
            num_partitions=config.num_partitions,
            cluster_workers=getattr(config, "cluster_workers", 2),
            cluster_address=getattr(config, "cluster_address", None),
            broadcast_join_threshold=config.broadcast_join_threshold,
            spill_threshold_bytes=config.spill_threshold_bytes,
            spill_dir=config.spill_dir,
            plan_optimize=getattr(config, "plan_optimize", True),
            columnar=getattr(config, "columnar", True),
            adaptive=getattr(config, "adaptive", True),
            plan_cache=getattr(config, "plan_cache", True),
        )

    # -- cluster bring-up ----------------------------------------------------

    def _start_cluster(self, cluster_address: str | None, register_timeout: float) -> None:
        if cluster_address is None:
            listener = socket.create_server(("127.0.0.1", 0))
            spawn_local = True
        else:
            listener = socket.create_server(protocol.parse_address(cluster_address))
            spawn_local = False
        self.cluster_address = protocol.format_address(listener.getsockname()[:2])
        try:
            if spawn_local:
                from repro.runtime.cluster.local import LocalCluster

                self._local_cluster = LocalCluster(self.cluster_workers, self.cluster_address)
            self._workers = self._accept_workers(listener, register_timeout)
        except BaseException:
            if self._local_cluster is not None:
                self._local_cluster.close()
            for handle in self._workers or []:
                handle.stop()
            raise
        finally:
            listener.close()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="cluster-heartbeat", daemon=True
        )
        self._monitor_thread.start()

    def _accept_workers(
        self, listener: socket.socket, register_timeout: float
    ) -> list[_WorkerHandle]:
        handles: list[_WorkerHandle] = []
        deadline = time.monotonic() + register_timeout
        while len(handles) < self.cluster_workers:
            listener.settimeout(max(0.1, deadline - time.monotonic()))
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                raise ExecutionError(
                    f"cluster registration timed out: {len(handles)} of "
                    f"{self.cluster_workers} workers registered on "
                    f"{self.cluster_address} within {register_timeout:.0f}s"
                ) from None
            try:
                conn.settimeout(10.0)
                message_type, payload = protocol.recv_message(conn)
            except (OSError, protocol.ProtocolError):
                conn.close()
                continue
            if message_type != protocol.REGISTER:
                conn.close()
                continue
            peer_python = tuple(payload.get("python", ()))[:2]
            if peer_python != tuple(sys.version_info[:2]):
                # Shipped functions travel as marshalled code objects, which
                # are only valid within one minor Python version.
                protocol.send_message(
                    conn,
                    protocol.ERROR,
                    {
                        "message": (
                            f"python version mismatch: driver runs "
                            f"{sys.version_info[0]}.{sys.version_info[1]}, "
                            f"worker runs {peer_python}"
                        )
                    },
                )
                conn.close()
                continue
            index = len(handles)
            protocol.send_message(conn, protocol.REGISTERED, {"index": index})
            conn.settimeout(None)
            handles.append(
                _WorkerHandle(index, conn, payload["serve_address"], payload.get("pid", 0))
            )
        return handles

    def _monitor_loop(self) -> None:
        """Probe idle workers so a silently dead one is noticed between jobs."""
        while not self._stop_monitor.wait(self.heartbeat_interval):
            for handle in self._workers or []:
                if handle.lost is None and not handle.busy and handle.queue.empty():
                    handle.submit(
                        protocol.encode_message(protocol.HEARTBEAT, {}),
                        self.heartbeat_interval * 2,
                    )

    # -- task dispatch -------------------------------------------------------

    def run_tasks(
        self,
        task: Callable[[list[Any], int], list[Any]],
        partitions: list[list[Any]],
        task_spec: tuple[Any, ...] | None = None,
    ) -> list[list[Any]]:
        if not partitions:
            return []
        if task_spec is None:
            return self._run_in_driver(task, partitions)
        outcome = self._dispatch(task_spec, partitions)
        if outcome is None:
            return self._run_in_driver(task, partitions)
        return outcome

    def _run_in_driver(
        self, task: Callable[[list[Any], int], list[Any]], partitions: list[list[Any]]
    ) -> list[list[Any]]:
        """Driver fallback: also accounts for any payloads it pulls over."""
        self.metrics.record_cluster_fallback()
        result = [task(partition, index) for index, partition in enumerate(partitions)]
        fetches, fetched_bytes = store_mod.drain_driver_fetch_counters()
        if fetches:
            self.metrics.record_driver_payload(fetched_bytes)
        return result

    def _writer_capture(self, task_spec: tuple[Any, ...]) -> bool:
        """Whether this chain ends in a map-side shuffle writer."""
        last = task_spec[-1]
        return (
            last.kind == stage_mod.PARTITIONS_INDEXED
            and isinstance(last.function, functools.partial)
            and last.function.func in _WRITER_FUNCTIONS
        )

    def _payload_mode(self, partitions: list[list[Any]]) -> bool:
        """Whether the partitions are reduce buckets of routed payloads."""
        for partition in partitions:
            if partition:
                return isinstance(partition[0], (BucketPayload, RemotePayload))
        return False

    def _dispatch(
        self, task_spec: tuple[Any, ...], partitions: list[list[Any]]
    ) -> list[list[Any]] | None:
        workers = self._workers
        if not workers:
            raise ExecutionError("cluster context is shut down")
        capture = self._writer_capture(task_spec)
        payload_mode = not capture and self._payload_mode(partitions)
        capture_id = next(self._capture_ids) if capture else None

        store_as: int | None = None
        fresh = False
        if not payload_mode:
            store_as = self._push_cache.lookup(partitions)
            if store_as is None:
                store_as = next(self._data_ids)
                fresh = True

        driver_bytes = 0
        entries: dict[int, list[tuple[int, tuple]]] = {}
        for index, partition in enumerate(partitions):
            worker_index = index % len(workers)
            if payload_mode:
                for element in partition:
                    if isinstance(element, BucketPayload):
                        # A real payload (produced by a driver fallback) is
                        # about to ride through the driver to a worker.
                        driver_bytes += sum(run.length for run in element.runs)
                        driver_bytes += sum(approximate_size(r) for r in element.records)
                spec: tuple = ("payloads", partition)
            elif fresh:
                spec = ("records", partition)
            else:
                spec = ("stored", store_as)
            entries.setdefault(worker_index, []).append((index, spec))

        message_type = protocol.SHUFFLE_WRITE if capture else protocol.RUN_TASKS
        frames: dict[int, bytes] = {}
        try:
            for worker_index, worker_entries in entries.items():
                frames[worker_index] = protocol.encode_message(
                    message_type,
                    {
                        "task_spec": task_spec,
                        "partitions": worker_entries,
                        "columnar": self.columnar,
                        "store_as": store_as if (fresh and not payload_mode) else None,
                        "capture_id": capture_id,
                    },
                )
        except wire.UnshippableError:
            return None

        if capture_id is not None and self._capture_stack:
            self._capture_stack[-1].append(capture_id)
        if fresh and not payload_mode:
            for evicted in self._push_cache.insert(partitions, store_as):
                self._free_on_workers(data_ids=[evicted])
        elif not payload_mode:
            self.metrics.record_resident_reuse(len(partitions))

        futures = [
            (worker_index, workers[worker_index].submit(frame, self.task_timeout))
            for worker_index, frame in frames.items()
        ]
        by_index: dict[int, Any] = {}
        task_error: _RemoteTaskError | None = None
        lost_error: WorkerLostError | None = None
        for worker_index, future in futures:
            try:
                _, response = future.result()
            except _RemoteTaskError as error:
                task_error = task_error or error
                continue
            except WorkerLostError as error:
                lost_error = lost_error or error
                continue
            counters = response.get("counters") or {}
            self.metrics.record_worker_payload(
                counters.get("payload_fetches", 0),
                counters.get("payload_fetch_bytes", 0),
                counters.get("payload_local_reads", 0),
            )
            serve_address = workers[worker_index].serve_address
            for index, output in response["results"]:
                if capture:
                    stats, num_buckets, buckets = output
                    by_index[index] = self._assemble_capture(
                        serve_address, capture_id, index, stats, num_buckets, buckets
                    )
                else:
                    by_index[index] = output
        if lost_error is not None:
            raise lost_error
        if task_error is not None:
            cause = task_error.cause
            if isinstance(cause, BaseException):
                raise ExecutionError(f"1 task(s) failed: {cause}") from cause
            raise ExecutionError(
                f"1 task(s) failed: {task_error}\n{task_error.remote_traceback}"
            )
        if driver_bytes:
            self.metrics.record_driver_payload(driver_bytes)
        self.metrics.record_parallel_tasks(len(partitions))
        return [by_index[index] for index in range(len(partitions))]

    def _assemble_capture(
        self,
        serve_address: str,
        capture_id: int,
        map_index: int,
        stats: Any,
        num_buckets: int,
        buckets: list[tuple[int, int]],
    ) -> list[Any]:
        """Rebuild a writer task's ``[stats, payload...]`` output shape with
        remote references in place of the worker-resident payloads."""
        counts = dict(buckets)
        output: list[Any] = [stats]
        for bucket_index in range(num_buckets):
            count = counts.get(bucket_index, 0)
            if count:
                output.append(
                    RemotePayload(
                        serve_address, (capture_id, map_index, bucket_index), count
                    )
                )
            else:
                output.append(BucketPayload((), ()))
        return output

    # -- shuffle lifecycle ---------------------------------------------------

    def run_shuffle(self, shuffle: Any) -> tuple[list[list[Any]], Any]:
        self._capture_stack.append([])
        try:
            return super().run_shuffle(shuffle)
        finally:
            capture_ids = self._capture_stack.pop()
            if capture_ids:
                self._free_on_workers(capture_ids=capture_ids)

    def _free_on_workers(
        self, data_ids: list[int] | None = None, capture_ids: list[int] | None = None
    ) -> None:
        """Best-effort STORE_FREE broadcast (a lost worker is already failing)."""
        try:
            frame = protocol.encode_message(
                protocol.STORE_FREE,
                {"data_ids": data_ids or [], "capture_ids": capture_ids or []},
            )
        except wire.UnshippableError:  # pragma: no cover - ids are ints
            return
        for handle in self._workers or []:
            if handle.lost is None:
                handle.submit(frame, self.task_timeout)

    # -- shutdown ------------------------------------------------------------

    def shutdown(self, cancel_pending: bool = True) -> None:
        """Stop workers, the heartbeat monitor and local subprocesses.

        Safe to call twice.  Unlike the in-driver context the cluster does
        *not* restart lazily: a shut-down cluster context is done.
        """
        workers, self._workers = self._workers, None
        if workers is not None:
            self._stop_monitor.set()
            goodbyes = []
            for handle in workers:
                if handle.lost is None:
                    goodbyes.append(
                        handle.submit(protocol.encode_message(protocol.SHUTDOWN, {}), 5.0)
                    )
            for future in goodbyes:
                try:
                    future.result(timeout=5.0)
                except Exception:
                    pass
            for handle in workers:
                handle.stop()
            if self._local_cluster is not None:
                if goodbyes:
                    self._local_cluster.wait(timeout=10.0)
                self._local_cluster.close()
            self._push_cache.clear()
        super().shutdown(cancel_pending)

    close = shutdown

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()
