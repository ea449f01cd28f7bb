"""The sparse fetch spelled out per processor: the reference for
``schedules.sparse.fetch_fragment`` and ``schedules.sparse._fetch_assignment``.

``fetch_fragment`` has the same signature and the same result as the
group-op fragment, with no group op.  Each fetched value is a ``Send`` key
at its sender in its fetch round, bundled per (sender, owner), and a
``MulAcc`` and a ``Drop`` at its owner in the round after; each resident
term (j == r) is a ``MulAcc`` in the trailing local step.
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

from plan_reference import Drop, MulAcc, Send, add, run_references


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
    triples = list(zip(*terms.tolist()))
    for r, k, j in triples:
        if j == r:
            add(plan, plan.num_rounds + 1, r, MulAcc(("c", r, j), ("a", r, k), ("b", k, j)))
    sends = {}  # (round, sender, owner) -> [keys]
    remote = [(r, k, j) for r, k, j in triples if j != r]
    for (r, k, j), rd in zip(remote, fetch_rounds.tolist()):
        bkey = ("b", k, j)
        sends.setdefault((rd, j, r), []).append(bkey)
        add(plan, start + rd + 1, r, MulAcc(("c", r, j), ("a", r, k), bkey), Drop((bkey,)))
    for (rd, j, r), keys in sorted(sends.items()):
        add(plan, start + rd, j, Send(r, tuple(keys)))


@contextlib.contextmanager
def per_processor_fetch():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "fetch_fragment", fetch_fragment)
        run_references(mp)
        yield
