"""The node half of the comm wire protocol.

One :class:`NodeServer` instance serves one connection to the
coordinator.  It runs either as a subprocess (``python -m
repro.comm.node``, spawned by :class:`repro.comm.TcpCommunicator`) or
as an in-process thread (``single_node`` loopback) — same protocol,
same code path.

Protocol (every message one framed pickle of ``(op, body)``):

* node → coordinator on connect: ``("hello", {node, token})``.
* ``("shard", {generation, seeds, reset})`` — install this node's
  slice of the resident program table (``seeds`` is ``[(pid,
  program), ...]``, the programs whose content-key hash homes here).
  A pooled node (``workers >= 1``) rebuilds its warm pool with the
  seeds baked into the initializer — the per-host analogue of
  ``ProcessBackend.warm`` — and replies ``("sharded", {node,
  generation, programs})`` only once the pool is up, so the reply is
  a real barrier.
* ``("chunk", {chunk_id, workload, generation, entries, shipped,
  fuel, ctx})`` — execute interned entries.  Serial nodes run
  them inline through :func:`repro.runtime.core._execute_entries`
  (against a node-local table, so in-process loopback nodes sharing
  one interpreter never share state); pooled nodes submit the
  payload to their own pool and reply from the done-callback, which
  pipelines chunks across the node's workers.  Reply: ``("result",
  {chunk_id, node, results, stats, seconds})`` — the same
  ``(results, stats, seconds)`` triple every runtime chunk returns,
  with any telemetry delta riding in ``stats`` exactly as PR 7's
  ``absorb_chunk_telemetry`` expects.  Failures reply ``("result",
  {chunk_id, error, crash})`` instead of dying, so the coordinator
  decides retry-vs-raise.
* ``("shutdown", {})`` — drain and exit.
"""

from __future__ import annotations

import argparse
import pickle
import socket
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.obs.telemetry import run_captured
from repro.runtime import core as _core
from repro.util.framing import FrameError, read_frame, write_frame

__all__ = ["NodeServer", "main"]


class NodeServer:
    """Serve one coordinator connection until shutdown or stream loss."""

    def __init__(
        self,
        sock: socket.socket,
        node: int,
        *,
        workers: int = 0,
        token: str = "",
        in_process: bool = False,
    ) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.node = node
        self.workers = workers
        self.token = token
        # In-process (loopback-thread) nodes must not hijack the
        # coordinator's process-global telemetry capture; their work is
        # already inside the coordinator's spans.
        self.in_process = in_process
        self.chunks = 0
        self._wlock = threading.Lock()
        self._generation = 0
        self._sources: dict[int, Any] = {}
        self._pool: ProcessPoolExecutor | None = None
        # Node-local resident table for the serial path; never the
        # module-global _WORKER, so loopback nodes sharing one
        # interpreter keep independent generations.
        self._table: dict = _core._resident_table()

    # -- wire ----------------------------------------------------------------

    def _reply(self, op: str, body: dict) -> None:
        payload = pickle.dumps((op, body), protocol=pickle.HIGHEST_PROTOCOL)
        with self._wlock:
            write_frame(self.sock, payload)

    def serve(self) -> None:
        try:
            self._reply("hello", {"node": self.node, "token": self.token})
            while True:
                try:
                    payload = read_frame(self.rfile)
                except (FrameError, OSError, ValueError):
                    break  # torn stream: the coordinator is gone
                if payload is None:
                    break
                op, body = pickle.loads(payload)
                if op == "shard":
                    self._on_shard(body)
                elif op == "chunk":
                    self._on_chunk(body)
                elif op == "ping":
                    self._reply("pong", {"node": self.node})
                elif op == "shutdown":
                    break
        except OSError:
            pass  # a reply hit a closed socket mid-serve
        finally:
            self._shutdown_pool(wait=False)
            try:
                self.rfile.close()
                self.sock.close()
            except OSError:
                pass

    # -- ops -----------------------------------------------------------------

    def _on_shard(self, body: dict) -> None:
        generation = int(body["generation"])
        if body.get("reset") or generation != self._generation:
            self._sources = {}
        self._generation = generation
        self._sources.update(body.get("seeds", ()))
        if self.workers >= 1:
            self._rebuild_pool()
        else:
            self._table = _core._resident_table(generation, self._sources.items())
        self._reply(
            "sharded",
            {
                "node": self.node,
                "generation": generation,
                "programs": len(self._sources),
            },
        )

    def _rebuild_pool(self) -> None:
        self._shutdown_pool(wait=False)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_core._worker_warm,
            initargs=(self._generation, list(self._sources.items())),
        )

    def _shutdown_pool(self, *, wait: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def _on_chunk(self, body: dict) -> None:
        chunk_id = body["chunk_id"]
        self.chunks += 1
        ctx = None if self.in_process else body.get("ctx")
        payload = (
            body["workload"],
            int(body["generation"]),
            tuple(body["entries"]),
            dict(body.get("shipped") or {}),
            body["fuel"],
        )
        if self.workers >= 1:
            if self._pool is None:  # a previous chunk broke it; self-heal
                self._rebuild_pool()
            task = (*payload, ctx) if ctx is not None else payload
            try:
                future = self._pool.submit(_core._run_workload_chunk, task)
            except BaseException as exc:
                self._reply_error(chunk_id, exc)
                return
            future.add_done_callback(lambda f: self._pooled_done(chunk_id, f))
            return
        workload, generation, entries, shipped, fuel = payload

        def run() -> tuple[list, dict, float]:
            return _core._execute_entries(
                workload, generation, entries, shipped, fuel, table=self._table
            )

        try:
            if ctx is not None:
                result = run_captured(ctx, run, kind=workload.kind, jobs=len(entries))
            else:
                result = run()
        except BaseException as exc:
            self._reply_error(chunk_id, exc)
            return
        self._reply_result(chunk_id, result)

    def _pooled_done(self, chunk_id: int, future: Future) -> None:
        try:
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                # The node's own pool died; drop it so the next chunk
                # rebuilds, and let the coordinator decide to retry.
                self._pool = None
                self._reply_error(chunk_id, exc, crash=True)
                return
            except BaseException as exc:
                self._reply_error(chunk_id, exc)
                return
            self._reply_result(chunk_id, result)
        except OSError:
            pass  # coordinator gone; the serve loop is exiting anyway

    def _reply_result(self, chunk_id: int, result: tuple[list, dict, float]) -> None:
        results, stats, seconds = result
        self._reply(
            "result",
            {
                "chunk_id": chunk_id,
                "node": self.node,
                "results": results,
                "stats": stats,
                "seconds": seconds,
            },
        )

    def _reply_error(
        self, chunk_id: int, exc: BaseException, *, crash: bool | None = None
    ) -> None:
        if crash is None:
            crash = isinstance(exc, BrokenProcessPool)
        self._reply(
            "result",
            {
                "chunk_id": chunk_id,
                "node": self.node,
                "error": f"{type(exc).__name__}: {exc}",
                "crash": bool(crash),
            },
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro comm node worker")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--node", type=int, required=True)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--token", default="")
    args = parser.parse_args(argv)
    sock = socket.create_connection((args.host, args.port))
    NodeServer(sock, args.node, workers=args.workers, token=args.token).serve()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
