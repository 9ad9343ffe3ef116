"""A wrapper that lies cannot corrupt a run.

A hybrid run spawns two local sessions at one barrier. Wrapper 0's
session has one of its outgoing records altered: a field dropped, set
to a malformed or out-of-range text, or changed to another valid value;
the record's step or kind changed; the record dropped, duplicated or
followed by an extra line; or the session closed before it. Every run
must end in one of three ways:

- it completes, with no wrapper failed and every entity back on the
  torus;
- wrapper 0 alone ends with a ProtocolError naming the cause, and its
  entities are restored from the snapshot, bit-exact, exactly once;
- run_simulation raises ConservationError, and the altered record was
  RESULT or a returned ENTITY (only they carry the entity set and the
  cursors).

No other exception may escape. A few plans also run on the process
backend at 2 LPs, whose outcome must equal the 1-LP in-process run's.
"""

import contextlib
import io
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from hybridsim import wrapper
from hybridsim.coordination import (
    DONE,
    ConservationError,
    FixedDurationPolicy,
    HybridSpec,
    ScriptedTrigger,
)
from hybridsim.engine import EngineConfig, InProcessBackend, run_simulation
from hybridsim.protocol import RECORD_KINDS, format_value
from hybridsim.territory import TerritorySpec

# wrapper 0 sends READY, STATUS twice, RESULT, 3 ENTITY and BYE: 8 records
RECORDS_SENT = 8
MODES = ("drop_field", "set_field", "alter_field", "step", "kind", "drop",
         "duplicate", "extra", "close")
BAD_TEXT = ("abc", "", "-5", "nan", "inf", "1e400")


def _altered(value: str) -> str:
    """Another well-formed value in place of a field's wire text."""
    for kind, by in ((int, 1), (float, 1.5)):
        try:
            return format_value(kind(value) + by)
        except ValueError:
            pass
    return {"mobile": "static", "static": "mobile", "none": "1.0,2.0",
            "-": "7"}.get(value, value + ",7")


class _Hostile:
    """What a session writes to: its channel, with record number at
    altered as how and pick say."""

    def __init__(self, ch, plan):
        self.ch = ch
        self.at, self.how, self.pick, self.bad = plan
        self.sent = 0
        self.closed = False
        self.hit = None  # the kind of the record altered

    def send(self, kind, step, /, **fields):
        n, self.sent = self.sent, self.sent + 1
        if self.closed:
            return
        if n != self.at:
            self.ch.send(kind, step, **fields)
            return
        self.hit = kind
        fields = {k: format_value(v) for k, v in fields.items()}
        key = sorted(fields)[self.pick % len(fields)] if fields else None
        if self.how == "close":
            self.closed = True
            return
        if self.how == "drop":
            return
        if key is not None and self.how == "drop_field":
            del fields[key]
        elif key is not None and self.how == "set_field":
            fields[key] = self.bad
        elif key is not None and self.how == "alter_field":
            fields[key] = _altered(fields[key])
        elif self.how == "step":
            step += (-1, 1, 7)[self.pick % 3]
        elif self.how == "kind":
            kind = [k for k in RECORD_KINDS if k != kind][self.pick % 7]
        self.ch.send(kind, step, **fields)
        if self.how == "duplicate":
            self.ch.send(kind, step, **fields)
        elif self.how == "extra":
            self.ch.send(RECORD_KINDS[self.pick % len(RECORD_KINDS)], step)


def _hostile_sessions(plan, session, hostile):
    """wrapper.session whose first session writes through a _Hostile
    and ends early once that is closed."""
    def first(ch):
        out = _Hostile(ch, plan)
        hostile.append(out)
        steps = session(out)
        expect = next(steps)
        while not out.closed:
            try:
                expect = steps.send((yield expect))
            except StopIteration:
                return
        steps.close()

    def opened(ch):
        return first(ch) if not hostile else session(ch)
    return opened


def _run(plan, lps=1, mode="inprocess"):
    """The run with wrapper 0 altered by plan: (metrics or the
    ConservationError, stderr, what was extracted and restored, the
    kind of record altered)."""
    extracted, restored, hostile = [], [], []
    extract, restore = InProcessBackend.extract, InProcessBackend.restore

    def logged_extract(backend, ids):
        extracted.append(tuple(extract(backend, ids)))
        return list(extracted[-1])

    def logged_restore(backend, records):
        restored.append(tuple(records))
        return restore(backend, records)

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(wrapper, "session",
                   _hostile_sessions(plan, wrapper.session, hostile))
        mp.setattr(InProcessBackend, "extract", logged_extract)
        mp.setattr(InProcessBackend, "restore", logged_restore)
        hybrid = HybridSpec(trigger=ScriptedTrigger(spawn_at=(2, 2),
                                                    transfer_count=3),
                            policy=FixedDurationPolicy(2))
        try:
            out = run_simulation(
                EngineConfig(num_lps=lps, total_timesteps=8, master_seed=3),
                TerritorySpec(24), hybrid=hybrid, mode=mode)
        except ConservationError as exc:
            out = exc
    return out, err.getvalue(), extracted, restored, hostile[0].hit


def _check(plan):
    """The run's outcome, after checking it is one of the three."""
    out, err, extracted, restored, hit = _run(plan)
    snapshot = extracted[0]  # wrapper 0 takes the lowest ids first
    ids = {rec.entity_id for rec in snapshot}
    back = [recs for recs in restored
            if ids & {rec.entity_id for rec in recs}]
    if isinstance(out, ConservationError):
        assert hit in ("RESULT", "ENTITY"), (hit, out)
        return repr(out)
    states = [t["state"] for t in out.wrapper_transcripts]
    if out.level1.failures == 0:
        assert err == "" and states == [DONE, DONE]
        [returned] = back
        side = TerritorySpec(24).side
        assert all(0 <= r.x < side and 0 <= r.y < side for r in returned)
    else:
        assert out.level1.failures == 1
        assert re.fullmatch(r"wrapper 0 (terminated|failed to start on"
                            r" local wrapper): \S.*\n", err), err
        assert back == [snapshot]  # bit-exact, exactly once
        assert states[-1] == DONE  # wrapper 1 finished its session
    return out.comparable()


@settings(max_examples=300, deadline=None)
@given(plan=st.tuples(st.integers(0, RECORDS_SENT), st.sampled_from(MODES),
                      st.integers(0, 99), st.sampled_from(BAD_TEXT)))
@example(plan=(3, "drop_field", 2, "abc"))  # RESULT without emissions
@example(plan=(3, "set_field", 1, "nan"))  # RESULT customers=nan
@example(plan=(7, "step", 1, "abc"))  # BYE for another step
@example(plan=(5, "alter_field", 1, "abc"))  # an ENTITY's cursor
@example(plan=(0, "close", 0, "abc"))  # closed before READY
@example(plan=(4, "set_field", 6, "nan"))  # an ENTITY at x=nan
def test_a_lying_wrapper_ends_in_one_of_three_ways(plan):
    _check(plan)


@pytest.mark.parametrize("plan", [
    (RECORDS_SENT, "drop", 0, "abc"),  # untouched: completes
    (3, "set_field", 7, "-5"),  # RESULT routes=-5: ProtocolError
    (5, "alter_field", 1, "abc"),  # an ENTITY's cursor: ConservationError
], ids=["completes", "protocol", "conservation"])
def test_a_lying_wrapper_ends_alike_on_two_worker_processes(plan):
    one_lp = _check(plan)
    out, *_ = _run(plan, lps=2, mode="process")
    assert (repr(out) if isinstance(out, ConservationError)
            else out.comparable()) == one_lp
