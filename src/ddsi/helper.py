"""One helper thread that shares jobs with the thread that made it."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


class Helper:
    """One thread that shares with its caller each job it is given (see
    share). A job is a callable over claimed indices, which does the work
    of each index it is given; numpy and zlib release the GIL inside their
    work, so the two threads use two cores. Use it in a with block, which
    joins the thread on the way out.
    """

    def __init__(self, name: str):
        self._lock = threading.Lock()
        self._front = self._back = 0  # the indices of this job not yet claimed
        self._job = self._error = None
        # each is held while there is nothing to hand over: share() releases
        # _go to the helper, and the helper _done to share(). Bare locks, since
        # importing queue maps two more shared libraries (0.2 MB of RSS).
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._thread = threading.Thread(target=self._serve, name=name, daemon=True)
        self._thread.start()

    def _claim(self, from_front: bool):
        """Yield, one at a time, the first or the last index of this job
        that neither thread has claimed yet."""
        while True:
            with self._lock:
                if self._front == self._back:
                    return
                if from_front:
                    i = self._front
                    self._front += 1
                else:
                    self._back -= 1
                    i = self._back
            yield i

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            if self._job is None:
                return
            errstate, job = self._job
            try:
                with np.errstate(**errstate):
                    job(self._claim(from_front=True))
            except BaseException as e:  # raised again in the caller by share()
                self._error = e
            self._done.release()

    @contextmanager
    def share(self, count: int, job):
        """Run job over the indices [0, count) on the helper, from the
        front, and yield the caller's claims, from the back.

        The caller may do other work first, and then work through its
        claims: the indices the helper has not reached by then are the
        caller's, so it never waits for a helper that started late or
        lost its core. On the way out, wait for the helper's share, and
        raise what it raised, unless the caller's block raised: its own
        error wins. numpy's error state does not carry into a thread, so
        the caller's goes with the job.
        """
        self._front, self._back = 0, count
        self._job = (np.geterr(), job)
        self._go.release()
        try:
            yield self._claim(from_front=False)
        finally:
            # the helper may still be writing what the job writes
            self._done.acquire()
            error, self._error = self._error, None
        if error is not None:
            raise error

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self._job = None
        if self._go.locked():  # not when a share was interrupted before the helper woke
            self._go.release()
        self._thread.join()
