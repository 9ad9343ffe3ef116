"""Timers the benchmark puts around library calls, from the outside.

Nothing in ``hybridsim`` is edited: a probe is a wrapper swapped in for
one attribute (a module function or a class method) for the length of a
run and swapped back afterwards. Untraced runs carry only the probes of
``RunClock``: one timestamp per coarse step, one timer per hand-off
call, and a resident-memory reading at each step.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from collections import defaultdict

from hybridsim import coordination, engine, parallel

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
_MISSING = object()


@contextlib.contextmanager
def patched(replacements):
    """Install (owner, attribute, value) triples; restore them on exit.

    An attribute the owner only inherited is deleted again rather than
    pinned on the subclass, so the class is left exactly as found.
    """
    saved = [(owner, name, vars(owner).get(name, _MISSING))
             for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


def rss_bytes(pids) -> int:
    """Summed resident set of the given processes (Linux /proc/statm).

    Pages a forked worker still shares with its parent count once per
    process, as the kernel reports them.
    """
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * _PAGE_BYTES
        except (FileNotFoundError, ProcessLookupError):
            pass  # a worker that exited between listing and reading
    return total


def run_pids() -> list:
    return [os.getpid()] + [p.pid for p in multiprocessing.active_children()]


class SetupDone(Exception):
    """Raised at the first coarse step of a set-up-only probe run."""


class RunClock:
    """Timestamps of one ``run_simulation`` call, taken at its seams.

    ``steps[k]`` is when the backend's ``step`` was called for coarse
    step k, ``finish_at`` when the loop handed over to ``finish``. The
    hand-off timers add the coarse-side time of every ``spawn_level1``,
    ``coordinate_step`` and ``reintegrate`` call to its session.
    With ``setup_only`` the first step call raises ``SetupDone``; the
    engine's ``finally`` then closes the backend as after any failure.
    """

    def __init__(self, setup_only: bool = False):
        self.setup_only = setup_only
        self.steps = []
        self.finish_at = None
        self.active_at_finish = None
        self.peak_rss = 0
        self.session_s = defaultdict(float)  # wrapper id -> seconds

    def step_durations(self) -> list:
        marks = self.steps + [self.finish_at]
        return [b - a for a, b in zip(marks, marks[1:])]

    def probes(self) -> list:
        out = []
        for cls in (engine.InProcessBackend, parallel.ProcessBackend):
            out.append((cls, "step", self._step_probe(cls.step)))
            out.append((cls, "finish", self._finish_probe(cls.finish)))
        # the session a call belongs to, from the call's arguments
        for name, session_of in (
                ("spawn_level1", lambda args: args[6]),  # its wrapper_id
                ("coordinate_step", lambda args: args[0].wrapper_id),
                ("reintegrate", lambda args: args[1].wrapper_id)):
            out.append((coordination, name, self._session_probe(
                getattr(coordination, name), session_of)))
        return out

    def _step_probe(self, orig):
        def step(backend, t, inboxes):
            self.steps.append(time.perf_counter())
            if self.setup_only:
                raise SetupDone()
            rss = rss_bytes(run_pids())
            if rss > self.peak_rss:
                self.peak_rss = rss
            return orig(backend, t, inboxes)
        return step

    def _finish_probe(self, orig):
        def finish(backend):
            self.finish_at = time.perf_counter()
            self.active_at_finish = backend.entity_count()
            return orig(backend)
        return finish

    def _session_probe(self, orig, session_of):
        def timed(*args):
            t0 = time.perf_counter()
            try:
                return orig(*args)
            finally:
                self.session_s[session_of(args)] += time.perf_counter() - t0
        return timed
