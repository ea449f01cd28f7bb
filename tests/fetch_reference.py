"""The sparse fetch spelled out per processor: the reference for
``schedules.sparse.fetch_fragment`` and ``schedules.sparse._fetch_assignment``.

``fetch_fragment`` has the same signature and the same result as the
group-op fragment, with no group op, and keeps each output cell (r, j)
as its own (1,) tile ("c", r, j).  Each fetched value is a ``Slice``
of one word out of its sender's B column tile ("b", j) and a ``Send`` in
its fetch round, bundled per (sender, owner), and a ``MulAcc`` and a
``Drop`` at its owner in the round after, with a(r, k) sliced out of the
owner's A row tile ("a", r); each resident term (j == r) slices both
words and is a ``MulAcc`` in the trailing local step.
``plan_reference.ReferenceProgram`` runs them op by op.
``per_processor_fetch`` patches it into the sparse module, so every
sparse schedule can be built both ways.

``fetch_assignment`` is the greedy that probes every round from 1 for each
term; the builder's version, with first-free-round pointers, must give the
same rounds.
"""

import contextlib

import numpy as np
import pytest

from mpcmm.schedules import sparse

from plan_reference import Drop, MulAcc, Send, Slice, add, run_references


def fetch_assignment(terms, d):
    quota = max(d, 1)
    recv_load, send_load = {}, {}
    rounds = []
    for r, _, j in zip(*terms.tolist()):
        if j == r:
            continue
        rd = 1
        while recv_load.get((rd, r), 0) >= quota or send_load.get((rd, j), 0) >= 2 * quota:
            rd += 1
        recv_load[(rd, r)] = recv_load.get((rd, r), 0) + 1
        send_load[(rd, j)] = send_load.get((rd, j), 0) + 1
        rounds.append(rd)
    return np.array(rounds, dtype=np.int64)


def fetch_fragment(plan, terms, fetch_rounds, start):
    terms = [term[:5] for term in zip(*terms.tolist())]  # each cell is its own tile: no slot
    for r, k, j, a_at, b_at in terms:
        if j == r:
            add(plan, plan.num_rounds + 1, r, *_fold(r, k, j, a_at, b_at))
    sends = {}  # (round, sender, owner) -> [(key, offset)]
    remote = [term for term in terms if term[2] != term[0]]
    for (r, k, j, a_at, b_at), rd in zip(remote, fetch_rounds.tolist()):
        sends.setdefault((rd, j, r), []).append((("b", k, j), b_at))
        add(plan, start + rd + 1, r, *_fold(r, k, j, a_at))
    for (rd, j, r), words in sorted(sends.items()):
        keys = tuple(key for key, _ in words)
        add(plan, start + rd, j, *(Slice(key, ("b", j), (at, at + 1), None) for key, at in words),
            Send(r, keys), Drop(keys))


def _fold(r, k, j, a_at, b_at=None):
    """c(r, j) (+)= a(r, k) (*) b(k, j) at r, a(r, k) sliced out of r's row
    tile; b(k, j) too where ``b_at`` is given (j == r), else as it arrived."""
    a, b = ("a", r, k, j), ("b", k, j)
    ops = [Slice(a, ("a", r), (a_at, a_at + 1), None)]
    if b_at is not None:
        ops.append(Slice(b, ("b", r), (b_at, b_at + 1), None))
    return (*ops, MulAcc(("c", r, j), a, b), Drop((a, b)))


@contextlib.contextmanager
def per_processor_fetch():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "fetch_fragment", fetch_fragment)
        run_references(mp)
        yield
