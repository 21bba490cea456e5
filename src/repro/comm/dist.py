"""``backend="dist"``: multi-node sharded execution for the runtime.

The transport side of the comm wire protocol.  :class:`DistBackend` is
the :class:`~repro.runtime.core.Coordinator` that ``process`` is —
same registry, memo, cost model and dispatch loop — whose lanes are
``nodes`` node workers behind a :class:`repro.comm.Communicator`; this
module only moves chunks:

* **Sharding.**  Every program's *content key* hashes to a home node
  (``sha1(key) mod nodes``); shard messages seed each node with
  exactly its slice, so a node prepares only the programs it will be
  asked to run.  Chunks route to the home node of their entries, and
  any not-yet-seeded program rides in the chunk's ``shipped`` dict —
  the same at-most-once-per-chunk mechanism the process pool uses.
* **Determinism.**  Results are all-gathered by chunk id into
  slot-addressed unique-result positions, so arrival order — which
  races across nodes — never touches result order: a distributed
  sweep is byte-identical to :class:`~repro.runtime.core.SerialBackend`.
* **Failure.**  A lost node surfaces as
  :class:`~repro.faults.chaos.WorkerCrash` (the supervisor's existing
  crash vocabulary): the coordinator requeues its in-flight chunks,
  the node is restarted here under a bumped generation and
  re-sharded, and the sweep continues — a chaos-killed-node run equals
  a clean run exactly.  Past ``max_node_restarts`` the coordinator
  runs the remainder locally, mirroring the supervisor's own last
  resort.
* **Telemetry.**  Chunk payloads carry the current
  :class:`~repro.obs.telemetry.TraceContext`; node-side deltas ride
  home inside the stats dict and are absorbed with PR 7's
  :func:`~repro.obs.telemetry.absorb_chunk_telemetry` — zero new
  telemetry plumbing.

Composes both ways: ``"journaled:dist"`` journals over it,
``"supervised:dist"`` drives its ``submit_chunk``/``recover`` surface
for deadlines/hedging/quarantine on top of node restarts.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import Counter
from collections.abc import Sequence
from concurrent.futures import Future
from typing import Any

from repro.comm import Communicator, NodeLost, create_communicator
from repro.obs.instrument import OBS
from repro.obs.telemetry import current_context
from repro.runtime.core import Coordinator
from repro.runtime.lifecycle import close_when_collected, enter_close, mark_open
from repro.runtime.workload import Workload
from repro.util.framing import key_digest

__all__ = ["DistBackend"]


def _crash() -> type[Exception]:
    # Late import: faults.chaos imports runtime.core; keep comm's
    # import graph acyclic at module load.
    from repro.faults.chaos import WorkerCrash

    return WorkerCrash


class DistBackend(Coordinator):
    """Sharded execution across node workers behind one communicator.

    One lane per node, each with a ``max(2, 2·workers_per_node)``
    in-flight window to pipeline over the wire.  ``topology`` defaults
    to ``"hierarchical"`` when each node gets more than one worker,
    else ``"naive"``; tests pass ``"single_node"`` for in-process
    loopback nodes.  The communicator (and its node subprocesses) is
    created lazily on first use and survives across ``execute`` calls —
    warm node pools, warm shards.
    """

    name = "dist"
    #: Lost-node restarts one batch may spend before it runs the rest locally.
    max_node_restarts = 4

    def __init__(
        self,
        workload: Workload,
        nodes: int = 2,
        *,
        workers_per_node: int | None = None,
        topology: str | None = None,
        chunksize: int | None = None,
        memo_size: int = 4096,
        chaos: Any = None,
        connect_timeout: float = 30.0,
    ) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        cpu = os.cpu_count() or 1
        self.workers_per_node = (
            workers_per_node if workers_per_node is not None else max(1, cpu // nodes)
        )
        lane_workers = max(1, self.workers_per_node)
        super().__init__(
            workload,
            lanes=nodes,
            window=max(2, 2 * lane_workers),
            lane_workers=lane_workers,
            chunksize=chunksize,
            memo_size=memo_size,
        )
        self.nodes = nodes
        if topology is None:
            topology = "hierarchical" if self.workers_per_node > 1 else "naive"
        self.topology = topology
        self.chaos = chaos
        self.connect_timeout = connect_timeout
        #: Total worker estimate — the supervisor sizes chunks off this.
        self.workers = nodes * lane_workers
        self._lost = (_crash(),)
        self._labels = {"nodes": nodes}
        self.comm: Communicator | None = None
        self._owner_pid = os.getpid()
        self._receiver: threading.Thread | None = None
        self._stop = threading.Event()
        # Per-node shard state.
        self._generation = [0] * nodes
        self._dead: set[int] = set()
        # Receiver-settled routing state, all guarded by _lock.
        self._lock = threading.Lock()
        self._inflight: dict[int, tuple[int, Future]] = {}
        self._barriers: dict[tuple[int, int], Future] = {}
        self._next_chunk = itertools.count(1)
        # Counters the bench and the report read.
        self.node_chunks: Counter = Counter()
        self.node_restarts = 0
        #: Replies for chunks already written off (the node was declared
        #: lost and the chunk redispatched before its reply landed).
        #: Discarded, never applied — benign, expected under kill races.
        self.stale_results = 0
        #: Replies for a chunk that was already settled — a protocol
        #: violation; must stay 0 (the node-kill exactness gate).
        self.duplicate_results = 0

    # -- sharding ------------------------------------------------------------

    def _place(self, key: Any) -> int:
        """The home node of a program: its resident-table slice.

        Hashed from the program's *content key* by
        :func:`~repro.util.framing.key_digest`, like ``journal_key``,
        so the placement is stable across processes and runs — the
        sharding diagram in DESIGN.md.
        """
        return int.from_bytes(key_digest(key)[:8], "big") % self.nodes

    def _shard(self, nodes: Sequence[int]) -> None:
        """Start a new generation on each node, seeded with its table
        slice; barrier on all the acks."""
        assert self.comm is not None
        acks = []
        for node in nodes:
            self._generation[node] += 1
            self._seeded[node] = set()
            generation = self._generation[node]
            seeds = [
                (pid, program)
                for pid, (_, program, home) in self._known.items()
                if home == node
            ]
            barrier: Future = Future()
            with self._lock:
                self._barriers[(node, generation)] = barrier
            message = ("shard", {"generation": generation, "seeds": seeds, "reset": True})
            try:
                self.comm.send(node, message)
            except NodeLost as exc:
                with self._lock:
                    self._barriers.pop((node, generation), None)
                raise _crash()(str(exc)) from exc
            acks.append((node, {pid for pid, _ in seeds}, barrier))
        for node, pids, barrier in acks:
            barrier.result(timeout=self.connect_timeout)
            self._seeded[node] = pids
        if OBS.enabled and acks:
            OBS.count("comm_shards_total", len(acks))

    def _reseed(self, lanes: set[int]) -> None:
        if self.comm is None:
            self._open()
        else:
            self._shard(sorted(lanes))

    # -- communicator lifecycle ----------------------------------------------

    def _open(self) -> None:
        if self.comm is not None and os.getpid() != self._owner_pid:
            # Forked copy: the sockets and node processes belong to the
            # parent.  Drop the references, never close them from here.
            self.comm = None
            self._receiver = None
        if self.comm is None:
            self._stop = threading.Event()
            self.comm = create_communicator(
                self.topology,
                nodes=self.nodes,
                workers_per_node=self.workers_per_node,
                connect_timeout=self.connect_timeout,
            )
            self._owner_pid = os.getpid()
            with self._lock:
                self._dead = set()
            self._receiver = threading.Thread(
                target=self._receive_loop, daemon=True, name="dist-recv"
            )
            self._receiver.start()
            self._shard(range(self.nodes))
            mark_open(self)

    def _restart_lane(self, node: int) -> None:
        """A dead node is a restarted generation: fresh process, bumped
        generation, its table slice re-sharded before any chunk flows."""
        assert self.comm is not None
        self.comm.restart_node(node)
        self.node_restarts += 1
        with self._lock:
            self._dead.discard(node)
        try:
            self._shard([node])
        except BaseException:
            with self._lock:
                self._dead.add(node)
            raise

    def _dead_lanes(self) -> set[int]:
        with self._lock:
            return set(self._dead)

    def recover(self) -> None:
        """Restart every dead node (the supervisor's recovery hook)."""
        if self.comm is None:
            return
        for node in sorted(self._dead_lanes()):
            self._restart_lane(node)

    def close(self) -> None:
        if not enter_close(self):
            return
        self._stop.set()
        comm, self.comm = self.comm, None
        if comm is not None and os.getpid() == self._owner_pid:
            comm.close()
        receiver, self._receiver = self._receiver, None
        if receiver is not None and receiver is not threading.current_thread():
            receiver.join(timeout=2.0)
        with self._lock:
            leftovers = [future for _, future in self._inflight.values()]
            leftovers += self._barriers.values()
            self._inflight.clear()
            self._barriers.clear()
        for future in leftovers:
            if not future.done():
                future.set_exception(_crash()("dist backend closed"))

    __del__ = close_when_collected

    # -- receiver ------------------------------------------------------------

    def _receive_loop(self) -> None:
        while not self._stop.is_set():
            comm = self.comm
            if comm is None:
                return
            try:
                got = comm.recv(timeout=0.1)
            except NodeLost as exc:
                self._on_node_lost(exc.node)
                continue
            except Exception:
                return  # communicator torn down under us
            if got is None:
                continue
            node, message = got
            try:
                op, body = message
            except (TypeError, ValueError):
                continue
            if op == "result":
                self._settle(node, body)
            elif op == "sharded":
                with self._lock:
                    barrier = self._barriers.pop(
                        (node, int(body.get("generation", -1))), None
                    )
                if barrier is not None and not barrier.done():
                    barrier.set_result(body)
            # hello/pong/bye: nothing to route

    def _settle(self, node: int, body: dict) -> None:
        with self._lock:
            _, future = self._inflight.pop(body.get("chunk_id"), (None, None))
        if future is None:
            self.stale_results += 1
            return
        if future.done():  # pragma: no cover - protocol violation
            self.duplicate_results += 1
            return
        if "error" in body:
            message = f"node {node}: {body['error']}"
            if body.get("crash"):
                future.set_exception(_crash()(message))
            else:
                future.set_exception(RuntimeError(message))
        else:
            future.set_result((body["results"], body["stats"], body["seconds"]))

    def _on_node_lost(self, node: int) -> None:
        with self._lock:
            self._dead.add(node)
            lost = [cid for cid, (owner, _) in self._inflight.items() if owner == node]
            victims = [self._inflight.pop(cid)[1] for cid in lost]
            shards = [key for key in self._barriers if key[0] == node]
            barriers = [self._barriers.pop(key) for key in shards]
        crash = _crash()
        for future in victims:
            if not future.done():
                future.set_exception(crash(f"comm node {node} lost mid-chunk"))
        for future in barriers:
            if not future.done():
                future.set_exception(crash(f"comm node {node} lost during shard"))

    # -- chunk transport -----------------------------------------------------

    def _submit_entries(
        self,
        node: int,
        entries: Sequence[tuple[int, Any]],
        *,
        fuel: int,
    ) -> tuple[Future, int]:
        """Route one interned chunk to ``node``; ``(future, bytes)``.

        A ``chaos`` schedule draws one fault slot per chunk sent; a
        ``"node_kill"`` kills the node first.  A send failure is a node
        loss — every chunk in flight to it fails, this one included —
        and raises ``WorkerCrash``, the crash the supervisor and the
        coordinator's dispatch loop both handle.
        """
        assert self.comm is not None
        if self.chaos is not None and self.chaos.next_fault() == "node_kill":
            self.kill_node(node)
        shipped = self._shipped(node, entries)
        chunk_id = next(self._next_chunk)
        future: Future = Future()
        future.set_running_or_notify_cancel()  # on the wire: not cancellable
        with self._lock:
            self._inflight[chunk_id] = (node, future)
        body = {
            "chunk_id": chunk_id,
            "workload": self.workload,
            "generation": self._generation[node],
            "entries": tuple(entries),
            "shipped": shipped,
            "fuel": fuel,
            "ctx": current_context(),
        }
        try:
            nbytes = self.comm.send(node, ("chunk", body))
        except NodeLost as exc:
            self._on_node_lost(node)
            raise _crash()(str(exc)) from exc
        self.node_chunks[node] += 1
        return future, nbytes

    def kill_node(self, node: int | None = None) -> int | None:
        """Chaos seam: abruptly kill one live node; returns its id.

        ``ChaosBackend`` maps the ``"node_kill"`` fault kind here.  The
        death is asynchronous — the loss surfaces through the reader as
        the chunk failures and restart a real SIGKILL would cause.
        """
        self._open()
        assert self.comm is not None
        dead = self._dead_lanes()
        alive = [n for n in range(self.nodes) if n not in dead]
        if not alive:
            return None
        victim = node if node in alive else alive[0]
        return victim if self.comm.kill_node(victim) else None

    # -- per-execute telemetry -----------------------------------------------

    def _wire_bytes(self) -> tuple[int, int]:
        comm = self.comm
        return (comm.bytes_sent, comm.bytes_recv) if comm is not None else (0, 0)

    def _mark(self) -> tuple:
        return (
            self.node_restarts,
            self.degraded_jobs,
            Counter(self.node_chunks),
            self._wire_bytes(),
        )

    def _since(self, mark: tuple) -> dict[str, Any]:
        restarts, degraded, _, _ = mark
        return {
            "nodes": self.nodes,
            "node_restarts": self.node_restarts - restarts,
            "degraded_jobs": self.degraded_jobs - degraded,
        }

    def _record(self, mark: tuple) -> None:
        restarts, _, chunks, (sent, recv) = mark
        sent_after, recv_after = self._wire_bytes()
        with OBS.atomic():
            for node, count in (Counter(self.node_chunks) - chunks).items():
                OBS.count("comm_chunks_total", count, node=str(node))
            if sent_after > sent:
                OBS.count("comm_bytes_sent_total", sent_after - sent)
            if recv_after > recv:
                OBS.count("comm_bytes_recv_total", recv_after - recv)
            if self.node_restarts > restarts:
                OBS.count("comm_node_restarts_total", self.node_restarts - restarts)
        OBS.gauge("comm_nodes", self.nodes - len(self._dead_lanes()))
