"""Per-processor handlers and messages on the engine's one round hook.

:class:`HandlerProgram` is the message protocol the references in
``tests/`` run on; the engine itself knows only ``group_step``.  In each
round its ``group_step`` runs the program's group work first (the next
``group_step`` in the method order, ``None`` on a bare program), then
``handler(round_no, p, state, inbox)`` for the processors ``active``
names plus every processor with a non-empty inbox, ascending.  A handler
returns p's new state and a list of (dst, tag, payload) sends; each
payload is a flat int64 word array, and its tag is routing metadata that
no budget charges.  The messages emitted in round r are p's inbox in
round r + 1, ordered by (source, emission order).  The step returns the
handlers' words sent and received on top of the group work's, and names
every handled processor as changed, so the engine charges messages
exactly as it charges group words.  The trailing local step runs no
handler: ``finalize(states)`` reads ``self.inboxes`` for the last
round's messages.
"""

from typing import NamedTuple

import numpy as np

from mpcmm import Program


class Message(NamedTuple):
    src: int
    dst: int
    tag: tuple  # routing metadata, not charged against any budget
    payload: np.ndarray  # flat int64 words


class HandlerProgram(Program):
    """A :class:`~mpcmm.Program` of per-processor handlers (see the module doc)."""

    def start(self):
        super().start()
        self.inboxes = {}  # processor -> its non-empty inbox

    def active(self, round_no):
        """Processors, ascending, that ``handler`` has work for in the round
        other than their inbox; None means all of them."""
        return None

    def handler(self, round_no, p, state, inbox):
        return state, []

    def group_step(self, round_no, states):
        procs = len(states)
        group = super().group_step(round_no, states)
        if round_no > self.total_rounds:
            return group
        if group is None:
            group = (*np.zeros((3, procs), dtype=np.int64), [])
        held, sent, received, changed = group
        sent, received = sent.copy(), received.copy()  # a plan's are cached per round
        inboxes, self.inboxes = self.inboxes, {}
        active = self.active(round_no)
        handled = range(procs) if active is None else sorted(set(active).union(inboxes))
        for p in handled:
            state, sends = self.handler(round_no, p, states[p], inboxes.get(p, []))
            for dst, tag, payload in sends:
                if not (0 <= dst < procs):
                    raise ValueError(f"processor {p} sent to invalid destination {dst}")
                payload = np.ascontiguousarray(payload).ravel()
                if payload.dtype != np.int64:
                    raise TypeError(f"processor {p} sent a {payload.dtype} payload in round "
                                    f"{round_no}; payloads must be int64 words")
                self.inboxes.setdefault(dst, []).append(Message(p, dst, tag, payload))
                sent[p] += payload.size
                received[dst] += payload.size
            states[p] = state
        return held, sent, received, sorted(set(changed).union(handled))
