"""Real multiprocess execution backend (:class:`ProcessComm`).

This is the second implementation of the
:class:`~repro.network.base.Communicator` protocol: every PE is a real
``multiprocessing`` worker process that owns its PE-local state (reservoir,
random generator, stream shard) and executes the same kernel functions the
simulated backend runs inline.

Communication layout
--------------------
* One duplex :func:`multiprocessing.Pipe` per worker carries *commands*
  from the coordinator (create state, run a kernel, participate in a
  collective) and their results back.
* One :class:`multiprocessing.Queue` per worker is its *inbox* for
  worker-to-worker messages.  Collectives are executed **by the workers
  themselves**: each rank follows the same binomial-tree / butterfly /
  hypercube schedule as the simulated algorithms in
  :mod:`repro.network.collectives` (parents/children/partners come from the
  shared :class:`~repro.network.topology.Topology`), sending pickled numpy
  payloads into its peers' inboxes.

Because the worker-side algorithms apply the reduction operator in exactly
the same order as their simulated counterparts, a reduction over floats
produces bit-identical results under both backends — which is what makes
the end-to-end sampler equivalence tests byte-exact.

The ledger records **measured wall-clock seconds** per operation (instead
of the simulated machine model), attributed to the current phase, so the
same Figure-6-style composition reports work for real executions.

Payload transports
------------------
``payload_transport="pickle"`` (default) serialises every payload through
the queues and pipes.  ``payload_transport="shm"`` routes large numpy
arrays through reusable shared-memory segments instead: every endpoint
(coordinator and workers) owns a :class:`~repro.network.shm_ring.ShmRing`,
arrays of at least ``shm_min_bytes`` travel as tiny
:class:`~repro.network.shm_ring.ShmDescriptor` control tuples, and the
receiver copies them out of the segment directly — no pickling, no pipe
buffering.  This cuts the gather cost of the centralized baseline and the
batch shipping of ``process_round(batches)``; samples are byte-identical
under both transports because only the transport changes, never the
values.

Fault handling and recovery
---------------------------
Worker exceptions are caught, serialised (type + traceback text) and
re-raised in the coordinator as :class:`WorkerError`.  Workers ignore
``SIGINT`` so a ``KeyboardInterrupt`` unwinds in the coordinator only,
whose ``shutdown()`` (also invoked by the context manager and ``atexit``)
terminates and joins every worker — no orphan processes are left behind.
Workers are daemonic as a last line of defence.

A worker that *dies* (SIGKILL, OOM, ``os._exit``) is detected through its
process sentinel while the coordinator waits for replies — not after a
timeout — and the coordinator immediately posts **abort sentinels** into
every inbox so peers blocked inside a half-finished collective unwind
with :class:`PeerAbort` in milliseconds instead of waiting out their
mailbox timeout.  :meth:`ProcessComm.recover` then respawns the dead
ranks, sweeps the shared-memory segments their dead incarnations leaked,
replays every recorded ``create_pe_state`` on the fresh processes and
bumps the communicator **epoch**: every inter-worker message carries the
epoch it was sent under, and messages from a previous epoch are silently
dropped, so no stale in-flight payload from before the failure can be
confused with post-recovery traffic.  Restoring the actual sampler state
and replaying the stream is the driver's job (see
:mod:`repro.checkpoint`).

For tests, :class:`FaultSpec` injects one deterministic failure into one
worker: die inside a kernel, drop one inter-worker send, or delay one
reply.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import queue as queue_module
import secrets
import signal
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.network import collectives
from repro.network.base import (
    Communicator,
    PEStateHandle,
    PerPEFuture,
    ReduceOp,
    normalize_payload_transport,
)
from repro.network.cost_model import CostLedger
from repro.obs.health import (
    drain_beat_messages,
    register_worker_beat_queue,
    set_worker_beat_epoch,
    worker_beats_sent,
    worker_wait_beat,
)
from repro.obs.log import (
    drain_worker_log_records,
    get_logger,
    install_worker_log_buffer,
    replay_worker_records,
    set_worker_log_epoch,
)
from repro.obs.tracer import NULL_TRACER, process_tracer, set_process_tracer
from repro.network.shm_ring import (
    DEFAULT_SHM_MIN_BYTES,
    ShmAttachmentCache,
    ShmRing,
    decode_payload,
    encode_payload,
    sweep_named_segments,
)
from repro.network.topology import Topology

__all__ = ["ProcessComm", "WorkerError", "PeerAbort", "FaultSpec", "default_start_method"]

#: shared-memory segment name stem; full worker prefixes are
#: ``reprshm_<token>_r<rank>e<epoch>_<serial>`` so a recovery sweep can
#: target exactly one communicator (token) and one rank without ever
#: touching a live peer's segments.
SHM_NAME_STEM = "reprshm"

#: ``src`` value of an abort sentinel in a worker inbox (no real rank is
#: negative); receiving one at the current or a newer epoch raises
#: :class:`PeerAbort`.
ABORT_SRC = -1

_logger = get_logger("network.process_comm")


class WorkerError(RuntimeError):
    """One or more worker processes raised while executing a command."""

    def __init__(self, failures: Sequence[Tuple[int, str, str]]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} worker(s) failed:"]
        for rank, exc_repr, tb in self.failures:
            lines.append(f"  [rank {rank}] {exc_repr}")
            if tb:
                lines.append("    " + "\n    ".join(tb.strip().splitlines()))
        super().__init__("\n".join(lines))


class PeerAbort(RuntimeError):
    """Raised inside a worker when the coordinator aborts a collective.

    The coordinator posts abort sentinels after detecting a peer failure;
    a worker blocked in ``recv`` unwinds immediately, reports the abort
    through its command pipe like any other kernel error, and keeps
    serving commands — it is a victim of the failure, not its cause.
    """


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One deterministic injected failure for the fault-injection tests.

    Parameters
    ----------
    rank:
        Worker rank the fault is installed on.
    action:
        ``"die_in_kernel"`` — ``os._exit(1)`` at the start of a command,
        simulating a SIGKILL/OOM mid-round; ``"drop_send"`` — silently
        swallow the worker's next inter-worker message, simulating a lost
        packet (peers unwind via their mailbox timeout, no process dies);
        ``"delay_reply"`` — sleep ``seconds`` before executing a command,
        simulating a straggler (the run must complete without recovery).
    after_calls:
        How many kernel/collective commands run normally before the fault
        fires (``0`` = the first one).  ``init_state`` and lifecycle
        commands never count.
    seconds:
        Sleep duration for ``"delay_reply"``.
    """

    rank: int
    action: str
    after_calls: int = 0
    seconds: float = 0.05

    _ACTIONS = ("die_in_kernel", "drop_send", "delay_reply")

    def __post_init__(self) -> None:
        if self.action not in self._ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; expected one of {self._ACTIONS}")
        if self.rank < 0:
            raise ValueError(f"fault rank must be non-negative, got {self.rank}")
        if self.after_calls < 0:
            raise ValueError(f"after_calls must be non-negative, got {self.after_calls}")


def default_start_method() -> str:
    """``"fork"`` where available (fast, inherits the parent's modules),
    otherwise ``"spawn"``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


# ---------------------------------------------------------------------------
# payload transport
# ---------------------------------------------------------------------------
class _PayloadCodec:
    """Per-endpoint payload encoder/decoder for one transport.

    With the ``"pickle"`` transport both directions are the identity.  With
    ``"shm"`` the endpoint owns a send-side :class:`ShmRing` (created
    lazily) and a receive-side :class:`ShmAttachmentCache`; ``encode``
    replaces large arrays with descriptors into the ring and ``decode``
    resolves descriptors received from any peer.
    """

    def __init__(self, transport: str, min_bytes: int, *, segment_prefix: Optional[str] = None) -> None:
        self.transport = transport
        self.min_bytes = int(min_bytes)
        self._ring = ShmRing(name_prefix=segment_prefix) if transport == "shm" else None
        self._cache = ShmAttachmentCache() if transport == "shm" else None

    @property
    def ring(self) -> Optional[ShmRing]:
        return self._ring

    def encode(self, value: object) -> object:
        if self._ring is None:
            return value
        return encode_payload(value, self._ring, self.min_bytes)

    def decode(self, value: object) -> object:
        if self._cache is None:
            return value
        return decode_payload(value, self._cache)

    def forget_attachments(self) -> None:
        """Drop cached attachments to peer segments (they may be gone).

        Called after a recovery: the dead incarnation's segments were
        swept, so any cached attachment to them must not be reused.  The
        cache re-attaches on demand; correctness is unaffected.
        """
        if self._cache is not None:
            self._cache.close()

    def close(self, *, unlink_attached: bool = False) -> None:
        """Drop attachments and unlink this endpoint's segments.  Idempotent.

        ``unlink_attached=True`` additionally best-effort-unlinks the
        *attached* (peer-owned) segments — the coordinator uses it when a
        worker had to be terminated and cannot run its own teardown.
        """
        if self._cache is not None:
            if unlink_attached:
                self._cache.unlink_all()
            else:
                self._cache.close()
        if self._ring is not None:
            self._ring.destroy()


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
class _Mailbox:
    """Receive-side of a worker's inbox with out-of-order stashing.

    Messages are tagged ``(seq, src, epoch)``.  Within one collective (one
    ``seq``) a rank may receive from several peers whose messages can
    interleave arbitrarily in the queue; messages for a later collective
    can also arrive while this rank is still draining the current one.
    ``recv`` returns the requested message and stashes everything else.

    Payloads are decoded (shared-memory descriptors resolved) the moment
    they leave the queue — *before* any stashing — so the sender's ring
    slots are released promptly no matter how far out of order the
    messages arrived.

    Two failure-path rules keep recovery sound:

    * a message whose epoch is **older** than the mailbox's is a leftover
      from before a recovery — it is dropped (its payload best-effort
      decoded only to release the sender's ring slot);
    * an **abort sentinel** (``src == ABORT_SRC``) at the current or a
      newer epoch raises :class:`PeerAbort`, unwinding a rank blocked in
      a collective whose peer died.
    """

    def __init__(self, queue, timeout: float, codec: _PayloadCodec, *, epoch: int = 0) -> None:
        self._queue = queue
        self._timeout = timeout
        self._codec = codec
        self.epoch = int(epoch)
        self._stash: Dict[Tuple[int, int], object] = {}

    def _decode_for_release(self, payload: object) -> None:
        # a dropped payload may reference segments of a dead worker; decode
        # only to release live ring slots, and ignore segments that are gone
        try:
            self._codec.decode(payload)
        except Exception:
            pass

    def recv(self, seq: int, src: int) -> object:
        key = (seq, src)
        if key in self._stash:
            return self._stash.pop(key)
        tracer = process_tracer()
        if tracer.enabled:
            with tracer.span("mailbox.wait", cat="comm", seq=seq, src=src):
                payload = self._recv_blocking(seq, src, key)
            tracer.counter("mailbox.stash", len(self._stash), cat="comm")
            return payload
        return self._recv_blocking(seq, src, key)

    #: poll slice of the blocking receive; bounds the wait-beat cadence
    WAIT_SLICE = 0.25

    def _recv_blocking(self, seq: int, src: int, key: Tuple[int, int]) -> object:
        deadline = time.monotonic() + self._timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"timed out waiting for message (seq={seq}, src={src}); "
                    "a peer worker likely died or raised"
                )
            try:
                msg_seq, msg_src, msg_epoch, payload = self._queue.get(
                    timeout=min(remaining, self.WAIT_SLICE)
                )
            except queue_module.Empty:
                # still waiting on a peer: prove to the watchdog that this
                # rank is blocked, not stuck — the peer that fails to send
                # these is the stall culprit (see repro.obs.health)
                worker_wait_beat()
                # loop back so the deadline check raises the descriptive
                # TimeoutError instead of a bare queue.Empty killing the
                # worker without a diagnosis
                continue
            if msg_epoch < self.epoch:  # stale: sent before the last recovery
                self._decode_for_release(payload)
                continue
            if msg_src == ABORT_SRC:
                raise PeerAbort(
                    f"collective aborted by the coordinator (epoch {msg_epoch}); "
                    "a peer worker died or failed"
                )
            payload = self._codec.decode(payload)
            if (msg_seq, msg_src) == key:
                return payload
            self._stash[(msg_seq, msg_src)] = payload

    def flush(self, new_epoch: int) -> None:
        """Adopt ``new_epoch``: drop the stash and drain queued messages.

        The epoch filter in :meth:`recv` remains the correctness backstop
        for any message still in flight behind the queue's feeder thread.
        """
        self.epoch = int(new_epoch)
        self._stash.clear()
        while True:
            try:
                _seq, _src, _epoch, payload = self._queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                break
            self._decode_for_release(payload)


class _WorkerNet:
    """Rank-local collective algorithms over the inter-worker inboxes.

    Each method mirrors the per-PE-value-list algorithm of the same name in
    :mod:`repro.network.collectives` — same tree shapes, same reduction
    order — executed from the perspective of one rank.
    """

    def __init__(
        self,
        rank: int,
        topology: Topology,
        inboxes,
        mailbox: _Mailbox,
        codec: _PayloadCodec,
    ) -> None:
        self.rank = rank
        self.topology = topology
        self.inboxes = inboxes
        self.mailbox = mailbox
        self.codec = codec
        self._drop_next_send = False

    @property
    def p(self) -> int:
        return self.topology.p

    def drop_next_send(self) -> None:
        """Fault injection: silently swallow the next outgoing message."""
        self._drop_next_send = True

    def _send(self, seq: int, dst: int, payload: object) -> None:
        if self._drop_next_send:
            self._drop_next_send = False
            return
        self.inboxes[dst].put((seq, self.rank, self.mailbox.epoch, self.codec.encode(payload)))

    # -- binomial tree ----------------------------------------------------
    def broadcast(self, seq: int, value: object, root: int) -> object:
        if self.p == 1:
            return value
        topo = self.topology
        rel = topo.relative_rank(self.rank, root)
        if rel != 0:
            value = self.mailbox.recv(seq, topo.binomial_parent(self.rank, root))
        for child in topo.binomial_children(self.rank, root):
            self._send(seq, child, value)
        return value

    def reduce(self, seq: int, value: object, op: ReduceOp, root: int) -> object:
        if self.p == 1:
            return value
        topo = self.topology
        rel = topo.relative_rank(self.rank, root)
        partial = value
        # Children attach at ascending bit positions; receiving in that
        # order reproduces the simulated algorithm's reduction order.
        for child in reversed(topo.binomial_children(self.rank, root)):
            partial = op(partial, self.mailbox.recv(seq, child))
        if rel != 0:
            self._send(seq, topo.binomial_parent(self.rank, root), partial)
            return None
        return partial

    def gather(self, seq: int, value: object, root: int) -> Optional[List[object]]:
        if self.p == 1:
            return [value]
        topo = self.topology
        rel = topo.relative_rank(self.rank, root)
        pairs: List[Tuple[int, object]] = [(self.rank, value)]
        for child in reversed(topo.binomial_children(self.rank, root)):
            pairs.extend(self.mailbox.recv(seq, child))
        if rel != 0:
            self._send(seq, topo.binomial_parent(self.rank, root), pairs)
            return None
        pairs.sort(key=lambda pair: pair[0])
        return [v for _, v in pairs]

    # -- butterfly --------------------------------------------------------
    def allreduce(self, seq: int, value: object, op: ReduceOp) -> object:
        p, rank = self.p, self.rank
        if p == 1:
            return value
        core = 1 << (p.bit_length() - 1)  # largest power of two <= p
        extra = p - core
        partial = value
        # fold-in: excess ranks contribute to a partner inside the core
        if extra and rank >= core:
            self._send(seq, rank - core, partial)
        elif extra and rank < extra:
            partial = op(partial, self.mailbox.recv(seq, rank + core))
        # butterfly among the core ranks (combine lower-rank value first,
        # matching collectives.butterfly_allreduce)
        if rank < core:
            for bit in range(core.bit_length() - 1):
                partner = rank ^ (1 << bit)
                self._send(seq, partner, partial)
                other = self.mailbox.recv(seq, partner)
                partial = op(partial, other) if rank < partner else op(other, partial)
        # fold-out: send the result back to the excess ranks
        if extra and rank < extra:
            self._send(seq, rank + core, partial)
        elif extra and rank >= core:
            partial = self.mailbox.recv(seq, rank - core)
        return partial

    def allgather(self, seq: int, value: object) -> List[object]:
        p, rank = self.p, self.rank
        if p == 1:
            return [value]
        if p & (p - 1) == 0:
            holdings: Dict[int, object] = {rank: value}
            for bit in range(p.bit_length() - 1):
                partner = rank ^ (1 << bit)
                self._send(seq, partner, holdings)
                received = self.mailbox.recv(seq, partner)
                merged = dict(holdings)
                merged.update(received)
                holdings = merged
            return [holdings[r] for r in range(p)]
        # non-power-of-two: binomial gather at rank 0, then broadcast
        gathered = self.gather(seq, value, root=0)
        return self.broadcast(seq, gathered, root=0)

    def scan(self, seq: int, value: object, op: ReduceOp) -> object:
        p, rank = self.p, self.rank
        if p == 1:
            return value
        prefix = value
        aggregate = value
        for bit in range(self.topology.rounds):
            partner = rank ^ (1 << bit)
            if partner >= p:
                continue
            self._send(seq, partner, aggregate)
            other = self.mailbox.recv(seq, partner)
            combined = op(aggregate, other) if rank < partner else op(other, aggregate)
            if partner < rank:
                prefix = op(other, prefix)
            aggregate = combined
        return prefix

    # -- point-to-point ---------------------------------------------------
    def p2p(self, seq: int, src: int, dst: int, value: object) -> object:
        if self.rank == src and src != dst:
            self._send(seq, dst, value)
            return value
        if self.rank == dst and src != dst:
            return self.mailbox.recv(seq, src)
        return value


def _worker_main(
    rank: int,
    p: int,
    conn,
    inboxes,
    mailbox_timeout: float,
    payload_transport: str = "pickle",
    shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES,
    segment_prefix: Optional[str] = None,
    epoch: int = 0,
    fault: Optional[FaultSpec] = None,
    beat_queue=None,
) -> None:
    """Command loop of one worker process."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main-thread start
        pass
    # fork hygiene: a forked worker inherits the coordinator's process
    # tracer object but must not write into it (the buffer would be lost
    # with the child); tracing is re-enabled per-rank by the collector's
    # install kernel.  Log records, by contrast, are always buffered so
    # the coordinator can forward them over the command pipe.
    set_process_tracer(NULL_TRACER)
    install_worker_log_buffer(rank, epoch=epoch)
    if beat_queue is not None:
        # heartbeat transport (mp.Queue inherited at spawn — queues cannot
        # travel over the command pipe); also wires the eager ≥WARNING log
        # forwarder so crash context survives this process dying
        register_worker_beat_queue(beat_queue, rank, epoch)
    _logger.debug("worker rank %d (pid %d) online at epoch %d", rank, os.getpid(), epoch)
    topology = Topology(p)
    codec = _PayloadCodec(payload_transport, shm_min_bytes, segment_prefix=segment_prefix)
    mailbox = _Mailbox(inboxes[rank], mailbox_timeout, codec, epoch=epoch)
    net = _WorkerNet(rank, topology, inboxes, mailbox, codec)
    states: Dict[int, object] = {}
    async_jobs: Dict[int, Tuple[threading.Thread, dict]] = {}
    fault_calls = 0

    def _ok(payload) -> tuple:
        # every reply echoes the beat count, see HealthMonitor.status()
        return ("ok", payload, worker_beats_sent())

    while True:
        try:
            # poll in slices so a rank idling between commands (its reply
            # is in, peers are still working) keeps proving liveness to
            # the watchdog instead of looking as silent as a stuck peer
            while not conn.poll(_Mailbox.WAIT_SLICE):
                worker_wait_beat("idle")
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        kind = msg[0]
        if kind == "exit":
            break
        if fault is not None and kind in ("run", "run_async", "coll"):
            triggered = fault_calls == fault.after_calls
            fault_calls += 1
            if triggered:
                if fault.action == "die_in_kernel":
                    # simulate SIGKILL/OOM: no teardown, no reply, hard exit
                    os._exit(1)
                elif fault.action == "delay_reply":
                    time.sleep(fault.seconds)
                elif fault.action == "drop_send":
                    net.drop_next_send()
        tracer = process_tracer()
        cmd_span = tracer.span("cmd." + str(kind), cat="comm") if tracer.enabled else None
        if cmd_span is not None:
            cmd_span.__enter__()
        try:
            if kind == "init_state":
                _, group, factory, args = msg
                states[group] = factory(rank, *codec.decode(args))
                conn.send(_ok(None))
            elif kind == "run":
                _, group, fn, args = msg
                conn.send(_ok(codec.encode(fn(states[group], *codec.decode(args)))))
            elif kind == "run_async":
                # Execute the kernel in a background thread so this loop can
                # keep serving collectives and other kernels against the
                # same state group.  The acknowledgement goes out as soon as
                # the thread is running; the result travels with the
                # matching "join_async" command.
                _, group, tag, fn, args = msg
                args = codec.decode(args)
                box: dict = {}
                state = states[group]

                def _async_body(fn=fn, state=state, args=args, box=box):
                    try:
                        box["reply"] = ("ok", fn(state, *args))
                    except BaseException as exc:
                        box["reply"] = ("err", repr(exc), traceback.format_exc())

                thread = threading.Thread(
                    target=_async_body, name=f"repro-pe-{rank}-async-{tag}", daemon=True
                )
                thread.start()
                async_jobs[tag] = (thread, box)
                conn.send(_ok(None))
            elif kind == "join_async":
                _, tag = msg
                thread, box = async_jobs.pop(tag)
                thread.join()
                reply = box.get("reply", ("err", "RuntimeError('async kernel vanished')", ""))
                if reply[0] == "ok":
                    # encode on the main thread: the ring is not thread-safe
                    reply = _ok(codec.encode(reply[1]))
                conn.send(reply)
            elif kind == "coll":
                _, seq, op_name, payload, extra = msg
                payload = codec.decode(payload)
                if op_name == "broadcast":
                    result = net.broadcast(seq, payload, extra["root"])
                elif op_name == "reduce":
                    result = net.reduce(seq, payload, extra["op"], extra["root"])
                elif op_name == "allreduce":
                    result = net.allreduce(seq, payload, extra["op"])
                elif op_name == "gather":
                    result = net.gather(seq, payload, extra["root"])
                elif op_name == "allgather":
                    result = net.allgather(seq, payload)
                elif op_name == "scan":
                    result = net.scan(seq, payload, extra["op"])
                elif op_name == "barrier":
                    net.allreduce(seq, 0.0, Communicator.SUM)
                    result = None
                elif op_name == "p2p":
                    result = net.p2p(seq, extra["src"], extra["dst"], payload)
                else:
                    raise ValueError(f"unknown collective {op_name!r}")
                conn.send(_ok(codec.encode(result)))
            elif kind == "flush":
                # Recovery resync: join-and-drop outstanding async kernels
                # (they are local-only, so the join is bounded), adopt the
                # new epoch, drain stale inbox traffic, and drop cached
                # attachments to segments that may have been swept.
                _, new_epoch = msg
                for thread, _box in async_jobs.values():
                    thread.join()
                async_jobs.clear()
                mailbox.flush(new_epoch)
                codec.forget_attachments()
                set_worker_log_epoch(new_epoch)
                set_worker_beat_epoch(new_epoch)
                tracer.instant("epoch_bump", cat="fault", epoch=int(new_epoch))
                conn.send(_ok(None))
            elif kind == "logs":
                # forward buffered log records over the command pipe; they
                # are plain tuples, no payload codec needed
                conn.send(_ok(drain_worker_log_records()))
            else:
                conn.send(("err", f"ValueError('unknown command {kind!r}')", ""))
        except BaseException as exc:  # propagate everything to the coordinator
            try:
                conn.send(("err", repr(exc), traceback.format_exc()))
            except (OSError, ValueError):  # pragma: no cover - pipe gone
                break
        finally:
            if cmd_span is not None:
                cmd_span.__exit__(None, None, None)
    for thread, _box in async_jobs.values():  # pragma: no cover - defensive
        thread.join(timeout=1.0)
    codec.close()
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------
class _ProcessPerPEFuture(PerPEFuture):
    """Handle to a kernel running in background threads inside the workers."""

    asynchronous = True

    def __init__(self, comm: "ProcessComm", tag: int) -> None:
        super().__init__(results=None)
        self._comm = comm
        self._tag = tag
        self._wait_time = 0.0
        self._failure: Optional[WorkerError] = None

    @property
    def wait_time(self) -> float:
        """Measured seconds ``wait()`` blocked for (0 until joined)."""
        return self._wait_time

    def wait(self) -> List[object]:
        if self._results is not None:
            return self._results
        if self._failure is not None:
            # the workers already popped this tag at the first join; re-raise
            # the original failure instead of re-sending the join command
            raise self._failure
        comm = self._comm
        comm._ensure_open()
        start = time.perf_counter()
        try:
            comm._send_commands({rank: ("join_async", self._tag) for rank in range(comm.p)})
            self._results = comm._collect(range(comm.p))
        except WorkerError as exc:
            self._failure = exc
            raise
        self._wait_time = time.perf_counter() - start
        comm._record(
            "join_per_pe_async",
            messages=2 * comm.p,
            words=0.0,
            rounds=1,
            elapsed=self._wait_time,
        )
        return self._results


class ProcessComm(Communicator):
    """Communicator running each PE as a real ``multiprocessing`` worker.

    Parameters
    ----------
    p:
        Number of worker processes (PEs).
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available, ``"spawn"`` otherwise.
    reply_timeout:
        Seconds the coordinator waits for a worker's reply to any single
        command before declaring it dead.
    mailbox_timeout:
        Seconds a worker waits for a peer's message inside a collective.
        Kept below ``reply_timeout`` so that a dead peer surfaces as a
        :class:`WorkerError` instead of a coordinator timeout.
    payload_transport:
        ``"pickle"`` (default) serialises every payload through the
        queues/pipes; ``"shm"`` routes numpy arrays of at least
        ``shm_min_bytes`` through reusable shared-memory segments
        (descriptor-passed, see :mod:`repro.network.shm_ring`).
    shm_min_bytes:
        Size threshold (bytes) above which an array takes the
        shared-memory path; ignored under the pickle transport.
    ledger:
        Ledger recording *measured* wall-clock time per operation; a fresh
        one is created if not given.
    fault:
        Optional :class:`FaultSpec` installed on one worker at spawn time
        (fault-injection tests only).  Respawned workers never inherit it.
    """

    kind = "process"

    def __init__(
        self,
        p: int,
        *,
        start_method: Optional[str] = None,
        reply_timeout: float = 120.0,
        mailbox_timeout: float = 30.0,
        payload_transport: str = "pickle",
        shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES,
        ledger: Optional[CostLedger] = None,
        fault: Optional[FaultSpec] = None,
    ) -> None:
        super().__init__()
        self.topology = Topology(p)
        self.ledger = ledger if ledger is not None else CostLedger()
        self.trace = None  # message tracing is a simulator-only feature
        self.reply_timeout = float(reply_timeout)
        self.mailbox_timeout = float(mailbox_timeout)
        self.payload_transport = normalize_payload_transport(payload_transport)
        self.shm_min_bytes = int(shm_min_bytes)
        self._codec = _PayloadCodec(self.payload_transport, self.shm_min_bytes)
        self._ctx = mp.get_context(start_method or default_start_method())
        self._seq = 0
        self._async_tags = 0
        self._groups = 0
        self._epoch = 0
        self._shm_token = secrets.token_hex(4)
        self._state_specs: List[Tuple[int, Callable[..., object], Optional[List[tuple]]]] = []
        self.last_swept_segments: List[str] = []
        self._closed = False
        self._inboxes = [self._ctx.Queue() for _ in range(p)]
        # heartbeat channel: one many-producer queue all workers inherit
        # at spawn; drained by an attached HealthMonitor (or recover/
        # shutdown, for the eagerly-forwarded log records it also carries)
        self._beat_queue = self._ctx.Queue()
        # per rank: beats the last reply announced, beats drained so far,
        # and the epoch its current incarnation was spawned at
        self._beats_announced = [0] * p
        self._beats_drained = [0] * p
        self._beat_spawn_epoch = [0] * p
        self._beat_drain_lock = threading.Lock()
        self._conns: List[object] = [None] * p
        self._procs: List[object] = [None] * p
        for rank in range(p):
            worker_fault = fault if fault is not None and fault.rank == rank else None
            self._spawn_worker(rank, worker_fault)
        self._atexit = atexit.register(self.shutdown)

    def _segment_prefix(self, rank: int) -> Optional[str]:
        """Deterministic shm name prefix of one worker incarnation.

        Scoped by communicator token, rank and epoch: the recovery sweep
        for a dead rank globs ``{stem}_{token}_r{rank}e`` and can match
        only that rank's (dead) incarnations, never a live peer.
        """
        if self.payload_transport != "shm":
            return None
        return f"{SHM_NAME_STEM}_{self._shm_token}_r{rank}e{self._epoch}"

    def _spawn_worker(self, rank: int, fault: Optional[FaultSpec]) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                rank,
                self.p,
                child_conn,
                self._inboxes,
                self.mailbox_timeout,
                self.payload_transport,
                self.shm_min_bytes,
                self._segment_prefix(rank),
                self._epoch,
                fault,
                self._beat_queue,
            ),
            name=f"repro-pe-{rank}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._beats_announced[rank] = self._beats_drained[rank] = 0
        self._beat_spawn_epoch[rank] = self._epoch
        self._conns[rank] = parent_conn
        self._procs[rank] = proc

    # ------------------------------------------------------------------
    # command plumbing
    # ------------------------------------------------------------------
    @property
    def workers_alive(self) -> List[bool]:
        """Liveness of each worker process (diagnostics/tests)."""
        return [proc.is_alive() for proc in self._procs]

    @property
    def worker_pids(self) -> List[int]:
        """PID of each worker process (the fault harness kills by pid)."""
        return [proc.pid for proc in self._procs]

    @property
    def epoch(self) -> int:
        """Current communicator epoch (bumped by every :meth:`recover`)."""
        return self._epoch

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("ProcessComm has been shut down")

    def _abort_pending_collectives(self) -> None:
        """Post an abort sentinel into every inbox (current epoch).

        Sent the moment a worker failure is detected so peers blocked in
        a half-finished collective unwind with :class:`PeerAbort` at once
        instead of waiting out their mailbox timeout.  Sentinels that no
        rank consumes become stale at the next epoch bump and are dropped
        by the mailbox filter.
        """
        for inbox in self._inboxes:
            try:
                inbox.put((ABORT_SRC, ABORT_SRC, self._epoch, None))
            except (OSError, ValueError):  # pragma: no cover - queue closed
                pass

    def _collect(self, ranks: Sequence[int]) -> List[object]:
        """Collect one reply from each given rank; raise if any failed.

        Waits on the command pipes *and* the worker process sentinels at
        the same time, so a worker death is detected immediately rather
        than after ``reply_timeout``.  On the first failure of any kind an
        abort sentinel is posted to every inbox (see
        :meth:`_abort_pending_collectives`); all remaining replies are
        still drained before raising so the surviving pipes stay in sync
        for subsequent commands.
        """
        ranks = list(ranks)
        results: Dict[int, object] = {}
        failures: List[Tuple[int, str, str]] = []
        pending = set(ranks)
        aborted = False

        def _fail(rank: int, message: str, tb: str = "") -> None:
            nonlocal aborted
            failures.append((rank, message, tb))
            results[rank] = None
            pending.discard(rank)
            if not aborted:
                aborted = True
                self._abort_pending_collectives()

        deadline = time.monotonic() + self.reply_timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for rank in sorted(pending):
                    failures.append((rank, f"no reply within {self.reply_timeout}s", ""))
                    results[rank] = None
                pending.clear()
                break
            waitables = []
            for rank in pending:
                waitables.append(self._conns[rank])
                waitables.append(self._procs[rank].sentinel)
            ready = mp_connection.wait(waitables, timeout=remaining)
            for rank in sorted(pending):
                conn = self._conns[rank]
                proc = self._procs[rank]
                if conn in ready or conn.poll(0):
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError) as exc:
                        _fail(rank, f"worker pipe closed ({exc!r})")
                        continue
                    if reply[0] == "ok":
                        results[rank] = self._codec.decode(reply[1])
                        self._beats_announced[rank] = reply[2]
                        pending.discard(rank)
                    else:
                        _fail(rank, str(reply[1]), reply[2])
                elif proc.sentinel in ready and not proc.is_alive():
                    _fail(rank, f"worker died (exitcode={proc.exitcode})")
        if failures:
            raise WorkerError(failures)
        return [results[rank] for rank in ranks]

    def _send_commands(self, messages_by_rank: Dict[int, object]) -> None:
        """Send one command per rank; on any send failure abort and raise.

        A dead worker's pipe raises ``BrokenPipeError`` at *send* time.
        The ranks that did receive the command would block inside any
        collective it starts, so on a failed send the coordinator posts
        abort sentinels, drains the successfully commanded ranks (their
        results are void — the operation as a whole failed) and raises the
        aggregated :class:`WorkerError`.
        """
        send_failures: List[Tuple[int, str, str]] = []
        sent: List[int] = []
        for rank, message in messages_by_rank.items():
            try:
                self._conns[rank].send(message)
                sent.append(rank)
            except (BrokenPipeError, OSError, ValueError) as exc:
                send_failures.append((rank, f"could not send command ({exc!r})", ""))
        if send_failures:
            self._abort_pending_collectives()
            try:
                self._collect(sent)
            except WorkerError as exc:
                send_failures.extend(exc.failures)
            raise WorkerError(send_failures)

    def _command_all(self, messages: Sequence[object]) -> List[object]:
        self._ensure_open()
        self._send_commands(dict(enumerate(messages)))
        return self._collect(range(self.p))

    def _record(self, op: str, messages: int, words: float, rounds: int, elapsed: float) -> None:
        self.ledger.record(
            op,
            phase=self._phase,
            p=self.p,
            messages=messages,
            words=words,
            rounds=rounds,
            time=elapsed,
        )

    def _collective(self, op_name: str, payloads: Sequence[object], extra: dict) -> List[object]:
        seq = self._seq
        self._seq += 1
        return self._command_all(
            [
                ("coll", seq, op_name, self._codec.encode(payloads[rank]), extra)
                for rank in range(self.p)
            ]
        )

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def broadcast(
        self, values: Sequence[object], root: int = 0, *, words: Optional[float] = None
    ) -> List[object]:
        """Broadcast ``values[root]`` to all PEs along a real binomial tree."""
        self._check_values(values)
        root = self.topology.validate_rank(root)
        if words is None:
            words = collectives.payload_words(values[root])
        start = time.perf_counter()
        result = self._collective("broadcast", values, {"root": root})
        self._record(
            "broadcast",
            messages=self.p - 1,
            words=words * (self.p - 1),
            rounds=self.topology.rounds,
            elapsed=time.perf_counter() - start,
        )
        return result

    def reduce(
        self,
        values: Sequence[object],
        op: ReduceOp,
        root: int = 0,
        *,
        words: Optional[float] = None,
    ) -> object:
        """Reduce per-PE values with ``op``; result is computed at ``root``."""
        self._check_values(values)
        root = self.topology.validate_rank(root)
        if words is None:
            words = max(collectives.payload_words(v) for v in values)
        start = time.perf_counter()
        results = self._collective("reduce", values, {"op": op, "root": root})
        self._record(
            f"reduce[{op.name}]",
            messages=self.p - 1,
            words=words * (self.p - 1),
            rounds=self.topology.rounds,
            elapsed=time.perf_counter() - start,
        )
        return results[root]

    def allreduce(
        self, values: Sequence[object], op: ReduceOp, *, words: Optional[float] = None
    ) -> List[object]:
        """All-reduce via a real butterfly exchange between the workers."""
        self._check_values(values)
        if words is None:
            words = max(collectives.payload_words(v) for v in values)
        messages = max(0, 2 * (self.p - 1))
        start = time.perf_counter()
        result = self._collective("allreduce", values, {"op": op})
        self._record(
            f"allreduce[{op.name}]",
            messages=messages,
            words=words * messages,
            rounds=self.topology.rounds,
            elapsed=time.perf_counter() - start,
        )
        return result

    def gather(
        self,
        values: Sequence[object],
        root: int = 0,
        *,
        words_per_pe: Optional[Sequence[float]] = None,
    ) -> List[object]:
        """Gather one value per PE at ``root`` along a real binomial tree."""
        self._check_values(values)
        root = self.topology.validate_rank(root)
        if words_per_pe is None:
            words_per_pe = [collectives.payload_words(v) for v in values]
        start = time.perf_counter()
        results = self._collective("gather", values, {"root": root})
        self._record(
            "gather",
            messages=self.p - 1,
            words=float(sum(words_per_pe)),
            rounds=self.topology.rounds,
            elapsed=time.perf_counter() - start,
        )
        return results[root]

    def allgather(
        self, values: Sequence[object], *, words_per_pe: Optional[Sequence[float]] = None
    ) -> List[List[object]]:
        """All-gather via recursive doubling (or gather+broadcast) between workers."""
        self._check_values(values)
        if words_per_pe is None:
            words_per_pe = [collectives.payload_words(v) for v in values]
        start = time.perf_counter()
        result = self._collective("allgather", values, {})
        self._record(
            "allgather",
            messages=2 * (self.p - 1),
            words=float(sum(words_per_pe)),
            rounds=self.topology.rounds,
            elapsed=time.perf_counter() - start,
        )
        return [list(v) for v in result]

    def scan(self, values: Sequence[object], op: ReduceOp, *, words: Optional[float] = None) -> List[object]:
        """Inclusive prefix reduction via a real hypercube exchange."""
        self._check_values(values)
        if words is None:
            words = max(collectives.payload_words(v) for v in values)
        start = time.perf_counter()
        result = self._collective("scan", values, {"op": op})
        self._record(
            f"scan[{op.name}]",
            messages=max(0, 2 * (self.p - 1)),
            words=words * (self.p - 1),
            rounds=self.topology.rounds,
            elapsed=time.perf_counter() - start,
        )
        return result

    def barrier(self) -> None:
        """Synchronise all workers (empty all-reduction)."""
        start = time.perf_counter()
        self._collective("barrier", [0.0] * self.p, {})
        self._record(
            "barrier",
            messages=max(0, 2 * (self.p - 1)),
            words=0.0,
            rounds=self.topology.rounds,
            elapsed=time.perf_counter() - start,
        )

    def send(self, src: int, dst: int, value: object, *, words: Optional[float] = None) -> object:
        """Send ``value`` from worker ``src`` to worker ``dst``; returns it."""
        src = self.topology.validate_rank(src)
        dst = self.topology.validate_rank(dst)
        if words is None:
            words = collectives.payload_words(value)
        if src == dst:
            return value
        self._ensure_open()
        seq = self._seq
        self._seq += 1
        start = time.perf_counter()
        extra = {"src": src, "dst": dst}
        self._send_commands(
            {
                src: ("coll", seq, "p2p", self._codec.encode(value), extra),
                dst: ("coll", seq, "p2p", None, extra),
            }
        )
        results = self._collect([src, dst])
        self._record("send", messages=1, words=words, rounds=1, elapsed=time.perf_counter() - start)
        return results[1]

    # ------------------------------------------------------------------
    # PE-state execution layer (states live inside the workers)
    # ------------------------------------------------------------------
    def create_pe_state(
        self,
        factory: Callable[..., object],
        per_pe_args: Optional[Sequence[Sequence[object]]] = None,
    ) -> PEStateHandle:
        """Install ``factory(rank, *args)`` as a state object in every worker."""
        if per_pe_args is not None and len(per_pe_args) != self.p:
            raise ValueError(f"expected {self.p} per-PE argument tuples, got {len(per_pe_args)}")
        group = self._groups
        self._groups += 1
        # Remember the spec so recover() can replay it on a respawned
        # worker: the fresh process re-runs the factory (empty state) and
        # the driver then restores actual contents from its checkpoint.
        self._state_specs.append(
            (group, factory, None if per_pe_args is None else [tuple(a) for a in per_pe_args])
        )
        self._command_all(
            [
                (
                    "init_state",
                    group,
                    factory,
                    self._codec.encode(tuple(per_pe_args[rank])) if per_pe_args is not None else (),
                )
                for rank in range(self.p)
            ]
        )
        return PEStateHandle(group=group)

    def run_per_pe(
        self,
        handle: PEStateHandle,
        fn: Callable[..., object],
        per_pe_args: Optional[Sequence[Sequence[object]]] = None,
    ) -> List[object]:
        """Dispatch ``fn`` to all workers at once; local work runs in parallel."""
        if per_pe_args is not None and len(per_pe_args) != self.p:
            raise ValueError(f"expected {self.p} per-PE argument tuples, got {len(per_pe_args)}")
        start = time.perf_counter()
        results = self._command_all(
            [
                (
                    "run",
                    handle.group,
                    fn,
                    self._codec.encode(tuple(per_pe_args[rank])) if per_pe_args is not None else (),
                )
                for rank in range(self.p)
            ]
        )
        self._record(
            "run_per_pe",
            messages=2 * self.p,
            words=0.0,
            rounds=1,
            elapsed=time.perf_counter() - start,
        )
        return results

    def run_per_pe_async(
        self,
        handle: PEStateHandle,
        fn: Callable[..., object],
        per_pe_args: Optional[Sequence[Sequence[object]]] = None,
    ) -> PerPEFuture:
        """Dispatch ``fn`` to a background thread inside every worker.

        The workers keep serving collectives and other kernels while the
        dispatched kernel runs, which is what lets the pipelined drivers
        overlap next-round key generation with the current round's
        selection.  The returned future's ``wait()`` joins the worker
        threads and returns (or raises) their results.
        """
        if per_pe_args is not None and len(per_pe_args) != self.p:
            raise ValueError(f"expected {self.p} per-PE argument tuples, got {len(per_pe_args)}")
        tag = self._async_tags
        self._async_tags += 1
        start = time.perf_counter()
        self._command_all(
            [
                (
                    "run_async",
                    handle.group,
                    tag,
                    fn,
                    self._codec.encode(tuple(per_pe_args[rank])) if per_pe_args is not None else (),
                )
                for rank in range(self.p)
            ]
        )
        self._record(
            "run_per_pe_async",
            messages=2 * self.p,
            words=0.0,
            rounds=1,
            elapsed=time.perf_counter() - start,
        )
        return _ProcessPerPEFuture(self, tag)

    def run_on_pe(self, handle: PEStateHandle, pe: int, fn: Callable[..., object], *args) -> object:
        """Dispatch ``fn`` to a single worker."""
        pe = self.topology.validate_rank(pe)
        self._ensure_open()
        self._send_commands({pe: ("run", handle.group, fn, self._codec.encode(tuple(args)))})
        return self._collect([pe])[0]

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _drain_inbox(self, rank: int) -> None:
        inbox = self._inboxes[rank]
        while True:
            try:
                inbox.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                break

    def _flush_workers(self) -> None:
        self._send_commands({rank: ("flush", self._epoch) for rank in range(self.p)})
        self._collect(range(self.p))

    def drain_worker_logs(self) -> int:
        """Forward buffered worker log records to the coordinator's loggers.

        Workers always buffer their ``repro.*`` log records (bounded
        deque); this pulls them over the command pipes and replays them
        through the coordinator's logger hierarchy, each prefixed with
        the originating rank and epoch.  Dead or unreachable workers are
        skipped.  Returns the number of records forwarded.
        """
        if self._closed:
            return 0
        total = 0
        for rank, proc in enumerate(self._procs):
            if not proc.is_alive():
                continue
            try:
                self._send_commands({rank: ("logs",)})
                (records,) = self._collect([rank])
            except (WorkerError, OSError, ValueError, EOFError):
                continue
            replay_worker_records(records)
            total += len(records)
        return total

    def _beats_in_flight(self) -> bool:
        # a dead rank's unsent beats died with it: never wait for those
        return any(
            drained < announced and proc.is_alive()
            for drained, announced, proc in zip(
                self._beats_drained, self._beats_announced, self._procs
            )
        )

    def drain_beats(self, *, replay_logs: bool = True, settle: float = 0.0) -> List[tuple]:
        """Drain the heartbeat queue.

        The queue carries ``("beat", ...)`` progress tuples and eagerly
        forwarded ``("log", record)`` tuples.  With ``replay_logs=True``
        (the recover/shutdown path) log records are replayed into the
        coordinator's loggers here and only the beats are returned; the
        health monitor drains with ``replay_logs=False`` and handles
        both kinds itself.

        Beats travel apart from the command replies, so a reply can land
        before the beats its kernel sent.  Every reply announces how many
        beats its rank has sent; with ``settle > 0`` the drain waits up to
        ``settle`` seconds until every announced beat has arrived.
        """
        messages: List[tuple] = []
        deadline = time.monotonic() + settle
        with self._beat_drain_lock:
            while True:
                wait = deadline - time.monotonic() if self._beats_in_flight() else 0.0
                try:
                    if wait > 0.0:
                        message = self._beat_queue.get(timeout=wait)
                    else:
                        message = self._beat_queue.get_nowait()
                except (queue_module.Empty, OSError, ValueError):
                    break
                if message[0] == "beat" and message[2] >= self._beat_spawn_epoch[message[1]]:
                    self._beats_drained[message[1]] += 1
                messages.append(message)
        if replay_logs:
            return drain_beat_messages(messages)
        return messages

    def recover(self) -> List[int]:
        """Respawn dead workers and resynchronise the communicator.

        Called by the driver after a :class:`WorkerError`.  In order:

        1. find dead ranks via ``Process.is_alive``;
        2. bump the epoch — everything sent before this instant is stale
           and will be dropped by the mailbox filters;
        3. drain the dead ranks' inboxes (they cannot drain their own)
           and sweep the shared-memory segments their dead incarnations
           leaked (rank-scoped names — live peers are untouchable);
        4. respawn each dead rank with a fresh pipe, the new epoch and a
           new segment prefix, then replay every recorded
           ``create_pe_state`` on it in creation order (fresh, *empty*
           states — restoring contents from a checkpoint is the driver's
           job, see :mod:`repro.checkpoint`);
        5. flush every worker (drop async jobs, stale messages, stash and
           attachment caches; adopt the new epoch) and drop the
           coordinator's own attachment cache.

        Also safe to call when no worker died (e.g. after a lost-message
        timeout): steps 2 and 5 alone restore a consistent collective
        state.  Returns the list of respawned ranks.
        """
        self._ensure_open()
        dead = [rank for rank, proc in enumerate(self._procs) if not proc.is_alive()]
        # forward what the survivors logged before the failure, so the
        # records carry their pre-recovery epoch tags — and whatever the
        # dead ranks managed to ship eagerly over the beat queue (their
        # buffered records died with them; the eager ≥WARNING copies are
        # all the crash context that survives)
        self.drain_worker_logs()
        self.drain_beats()
        self._epoch += 1
        _logger.info(
            "recovering communicator: epoch %d -> %d, dead ranks %s",
            self._epoch - 1,
            self._epoch,
            dead,
        )
        self.tracer.instant(
            "recover", cat="fault", epoch=self._epoch, dead_ranks=list(dead)
        )
        swept: List[str] = []
        for rank in dead:
            self._drain_inbox(rank)
            if self.payload_transport == "shm":
                swept.extend(sweep_named_segments(f"{SHM_NAME_STEM}_{self._shm_token}_r{rank}e"))
        for rank in dead:
            try:
                self._conns[rank].close()
            except OSError:  # pragma: no cover - already closed
                pass
            self._procs[rank].join(timeout=1.0)
            self._spawn_worker(rank, fault=None)
        for rank in dead:
            for group, factory, per_pe_args in self._state_specs:
                args = () if per_pe_args is None else self._codec.encode(tuple(per_pe_args[rank]))
                self._send_commands({rank: ("init_state", group, factory, args)})
                self._collect([rank])
        self._flush_workers()
        self._codec.forget_attachments()
        self.last_swept_segments = swept
        return dead

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Terminate all workers and release IPC resources.  Idempotent."""
        if self._closed:
            return
        try:
            self.drain_worker_logs()
            self.drain_beats()
        except Exception:  # pragma: no cover - teardown is best-effort
            pass
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc.is_alive():
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=1.0)
        for queue in self._inboxes:
            try:
                queue.cancel_join_thread()
                queue.close()
            except (OSError, ValueError):  # pragma: no cover
                pass
        try:
            self._beat_queue.cancel_join_thread()
            self._beat_queue.close()
        except (OSError, ValueError):  # pragma: no cover
            pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        # All workers are gone: unlink the coordinator's own ring (workers
        # that exited cleanly unlinked theirs).  A worker that died hard —
        # terminated above, or killed before shutdown (non-zero exitcode,
        # None = unjoinable) — never ran its teardown, and ring segments
        # are deliberately untracked, so best-effort-unlink the worker
        # segments this side attached, then sweep every remaining segment
        # of this communicator by its token-scoped name (covers the
        # worker-to-worker segments of hard-killed workers, which used to
        # be a documented leak).
        unclean = any(proc.exitcode != 0 for proc in self._procs)
        self._codec.close(unlink_attached=unclean)
        if self.payload_transport == "shm":
            sweep_named_segments(f"{SHM_NAME_STEM}_{self._shm_token}_")
        try:
            atexit.unregister(self._atexit)
        except Exception:  # pragma: no cover
            pass

    def __del__(self) -> None:  # pragma: no cover - defensive
        try:
            self.shutdown()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        status = "closed" if self._closed else "open"
        return f"ProcessComm(p={self.p}, pid={os.getpid()}, {status})"
