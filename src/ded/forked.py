"""Code run in another process: one forked from this one, reached through a
pair of pipes.

`Forked` is the one way `ded` runs code elsewhere. `ded run`'s helper
process, which imports numpy and runs diversify and stats, is one, and so
is each process that diversify forks for a pack of questions. Neither
imports `multiprocessing` or starts a thread.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import sys
from contextlib import suppress
from typing import Any, Callable


def outcome(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[bool, Any]:
    """(True, fn's result) or (False, the exception it raised)."""
    try:
        return True, fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - raised again where the result is used
        return False, exc


def _serve(requests: int, replies: int, idle: list[Callable[[], Any]]) -> None:
    """The child's loop: run each pickled (fn, args, kwargs) call read from
    `requests` and write back its `outcome`, until the pipe closes. While no
    call waits, it runs the next of `idle`."""
    with open(requests, "rb") as inbox, open(replies, "wb") as outbox:
        while True:
            while idle and not select.select([inbox], [], [], 0)[0]:
                idle.pop(0)()
            try:
                fn, args, kwargs = pickle.load(inbox)
            except EOFError:  # the parent closed the pipe
                return
            outbox.write(pickle.dumps(outcome(fn, *args, **kwargs)))
            outbox.flush()


class Forked:
    """A process forked from this one that runs the calls sent to it, one at
    a time, and exits once `close` is called, which waits for it.

    An exception raised in a call is raised again here as itself. The
    child freezes the heap it forked with, so that its collections leave
    the pages it shares with this process alone, and runs each of `idle` in
    turn while no call waits. A fork copies only the calling thread, and a
    lock another thread holds stays held in the child: `ded run` forks its
    helper before it starts any thread, and diversify's packs fork from the
    helper.
    """

    # this process's ends of every open Forked's pipes: a child closes them,
    # or an earlier child would not see its pipe of calls close
    _ends: set[int] = set()

    def __init__(self, role: str, *idle: Callable[[], Any]) -> None:
        """`role`: what the child is, named when it dies."""
        self.role = role
        requests, send = os.pipe()
        recv, replies = os.pipe()
        # what is still buffered would be written again by the child
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                for fd in (send, recv, *Forked._ends):
                    os.close(fd)
                Forked._ends.clear()
                gc.freeze()
                _serve(requests, replies, list(idle))
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)
        self._ends_here = (send, recv)
        Forked._ends.update(self._ends_here)
        self._send = open(send, "wb")
        self._recv = open(recv, "rb")

    def send(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Start fn(*args, **kwargs) in the child; fn is sent by name."""
        try:
            pickle.dump((fn, args, kwargs), self._send)
            self._send.flush()
        except BrokenPipeError as exc:
            raise RuntimeError(f"{self.role} died") from exc

    def receive(self) -> Any:
        """The result of the earliest call sent and not yet received."""
        try:
            ok, value = pickle.load(self._recv)
        except EOFError as exc:
            raise RuntimeError(f"{self.role} died") from exc
        if not ok:
            raise value
        return value

    def __call__(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """fn(*args, **kwargs), run in the child."""
        self.send(fn, *args, **kwargs)
        return self.receive()

    def close(self) -> None:
        """Let the child finish its call and exit, and wait for it."""
        Forked._ends.difference_update(self._ends_here)
        with suppress(BrokenPipeError):  # the rest of a call the child died in
            self._send.close()
        self._recv.close()
        os.waitpid(self.pid, 0)
