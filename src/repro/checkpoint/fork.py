"""Process-level checkpointing with ``os.fork``.

The capture/replay half of :mod:`repro.checkpoint` proves state equality;
this half buys wall-clock time.  ``os.fork`` snapshots the *entire
interpreter* — suspended generators included, which no serializer can do —
so a simulation paused at its fork point continues in each child exactly
as the parent would have, bit for bit (copy-on-write, same heap layout,
same iteration orders).

* :func:`fork_map` — one-shot: run each thunk in its own forked child of
  the *current* process state and collect the pickled results.  Used by
  warm-started sweeps: simulate the shared prefix once, fork per sweep
  point.
* :class:`ForkPoint` — a fork *server*: a child process runs ``setup()``
  once (e.g. replay a scenario to its checkpoint instant) and then parks;
  every :meth:`ForkPoint.call` forks a grandchild from that parked state
  to answer one request.  Used by the fuzz shrinker to probe candidate
  scenarios from the nearest checkpoint instead of t=0.

POSIX only (``HAVE_FORK`` gates every entry point); callers fall back to
in-process execution when fork is unavailable.  Children exit with
``os._exit`` so they never run parent atexit hooks or flush shared file
descriptors twice.
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import Any, Callable, Optional, Sequence

__all__ = ["HAVE_FORK", "fork_map", "ForkPoint"]

HAVE_FORK = hasattr(os, "fork")

_LEN = struct.Struct("!Q")


def _write_msg(fd: int, obj: Any) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    data = _LEN.pack(len(payload)) + payload
    view = memoryview(data)
    while view:
        n = os.write(fd, view)
        view = view[n:]


def _read_exact(fd: int, n: int) -> Optional[bytes]:
    chunks = []
    got = 0
    while got < n:
        chunk = os.read(fd, n - got)
        if not chunk:
            return None  # EOF: peer died or closed
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _read_msg(fd: int) -> Any:
    header = _read_exact(fd, _LEN.size)
    if header is None:
        return None
    payload = _read_exact(fd, _LEN.unpack(header)[0])
    if payload is None:
        return None
    return pickle.loads(payload)


def _child_result(thunk: Callable[[], Any]) -> tuple:
    try:
        return (True, thunk())
    except BaseException as e:  # report, don't unwind into the fork
        return (False, f"{type(e).__name__}: {e}")


def fork_map(thunks: Sequence[Callable[[], Any]]) -> list:
    """Run each thunk in a forked child of the current process state.

    Children run sequentially (deterministic timing, no core
    oversubscription while a child simulates); each inherits the parent's
    exact heap at the moment of its fork, so every thunk sees the same
    prepared state no matter its position in the list.  Returns one result
    per thunk; a thunk that raised surfaces as a re-raised
    :class:`RuntimeError` carrying the child's error string.

    Requires :data:`HAVE_FORK`; callers gate on it.
    """
    if not HAVE_FORK:
        raise RuntimeError("fork_map requires os.fork (POSIX only)")
    results = []
    for thunk in thunks:
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(r)
            ok = False
            try:
                outcome = _child_result(thunk)
                ok = outcome[0]
                _write_msg(w, outcome)
            finally:
                os._exit(0 if ok else 1)
        os.close(w)
        try:
            msg = _read_msg(r)
        finally:
            os.close(r)
            os.waitpid(pid, 0)
        if msg is None:
            raise RuntimeError("forked child died before reporting a result")
        ok, value = msg
        if not ok:
            raise RuntimeError(f"forked child failed: {value}")
        results.append(value)
    return results


class ForkPoint:
    """A paused computation held in a forked child, probed on demand.

    ``setup()`` runs once, in the child, right after the fork — build the
    expensive shared state there (the parent never pays for it).  Each
    :meth:`call` ships a request to the child, which forks a grandchild;
    the grandchild runs ``handler(state, request)`` against the parked
    state and replies.  The parked child is immutable between calls —
    every grandchild starts from the identical snapshot.

    Use as a context manager, or :meth:`close` explicitly.
    """

    def __init__(
        self,
        setup: Callable[[], Any],
        handler: Callable[[Any, Any], Any],
    ) -> None:
        if not HAVE_FORK:
            raise RuntimeError("ForkPoint requires os.fork (POSIX only)")
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the parked child
            os.close(req_w)
            os.close(resp_r)
            code = 0
            try:
                try:
                    state = setup()
                except BaseException as e:
                    _write_msg(resp_w, (False, f"setup: {type(e).__name__}: {e}"))
                    os._exit(1)
                _write_msg(resp_w, (True, None))  # setup done, ready
                while True:
                    req = _read_msg(req_r)
                    if req is None:  # parent closed: shut down
                        break
                    gpid = os.fork()
                    if gpid == 0:  # grandchild: one probe, then exit
                        ok = False
                        try:
                            outcome = _child_result(
                                lambda: handler(state, req)
                            )
                            ok = outcome[0]
                            _write_msg(resp_w, outcome)
                        finally:
                            os._exit(0 if ok else 1)
                    os.waitpid(gpid, 0)
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        # parent
        os.close(req_r)
        os.close(resp_w)
        self._pid = pid
        self._req_w = req_w
        self._resp_r = resp_r
        self._closed = False
        ok, err = _read_msg(self._resp_r) or (False, "child died in setup")
        if not ok:
            self.close()
            raise RuntimeError(f"ForkPoint setup failed: {err}")

    def call(self, request: Any) -> Any:
        """Run ``handler(state, request)`` in a fresh grandchild."""
        if self._closed:
            raise RuntimeError("ForkPoint is closed")
        _write_msg(self._req_w, request)
        msg = _read_msg(self._resp_r)
        if msg is None:
            self.close()
            raise RuntimeError("ForkPoint child died mid-request")
        ok, value = msg
        if not ok:
            raise RuntimeError(f"ForkPoint probe failed: {value}")
        return value

    def close(self) -> None:
        """Tear down the parked child (idempotent)."""
        if self._closed:
            return
        self._closed = True
        os.close(self._req_w)
        os.close(self._resp_r)
        try:
            os.waitpid(self._pid, 0)
        except ChildProcessError:
            pass

    def __enter__(self) -> "ForkPoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
