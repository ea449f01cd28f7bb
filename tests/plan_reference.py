"""The per-processor instruction set: what the references in ``tests/`` run on.

The shipped plans hold group ops only (``mpcmm.plan``).  The rotation,
fetch and tree-sum references spell the same schedules out as ops per
(round, processor), placed with :func:`add` in ``Plan.ops`` and run op
by op by :class:`ReferenceProgram`, whose tiles travel as messages of
the ``handler_program`` adapter::

    Mac(c, a, b)            c  (+)=  a @ b        (semiring block product)
    MulAcc(c, a, b)         c  (+)=  a (*) b      (elementwise)
    AccCell(c, src, index)  c  (+)=  flat word ``index`` of src, as a (1,) tile
    Assemble(dst, srcs, axis)   concatenate tiles
    Slice(dst, src, rows, cols) copy a sub-block; words rows[0]:rows[1] if cols is None
    Pack(dst, src, offsets, shape)  gather flat words of src (-1 -> zero) into a tile
    Send(dst, keys)             bundle the listed tiles to processor dst
    Drop(keys)                  free tiles

Accumulator destinations that do not exist yet start as zero tiles, so
plans never pre-allocate outputs.  An op that reads a key its store does
not hold raises ``MissingTile``.  A ``Send``'s payload carries (key,
shape) tags so that the receiver restores the tiles into its own store.

:func:`gather_ops` spells a gather out per processor, from the same
``(sources, src, at, width)`` description that
``schedules.common.gather`` reads: each holder packs the words it gives
a tile by offset and sends them, and the tile's processor puts the
packs together a round later.  :func:`gather_pieces` runs those ops
directly on a list of stores, the reference for ``plan.Gather``.

In a round, the tiles that arrived as messages join their stores
first, then the plan's group ops run, then the processors' ops.  The
ops placed in the trailing local step (round ``num_rounds + 1``) run in
``finalize``, every processor's before any emit is read; nothing there
may send, and no op may be placed later.

:func:`run_references` makes the builders construct
:class:`ReferenceProgram`; every context manager that patches a
reference fragment into them calls it.
"""

import math
from dataclasses import dataclass

import numpy as np

from mpcmm.plan import MissingTile, PlanProgram
from mpcmm.schedules import rect, sparse, square

from handler_program import HandlerProgram, Message


@dataclass(frozen=True)
class Mac:
    c: tuple
    a: tuple
    b: tuple


@dataclass(frozen=True)
class MulAcc:
    c: tuple
    a: tuple
    b: tuple


@dataclass(frozen=True)
class AccCell:
    c: tuple
    src: tuple
    index: int  # flat index into src


@dataclass(frozen=True)
class Assemble:
    dst: tuple
    srcs: tuple
    axis: int


@dataclass(frozen=True)
class Slice:
    dst: tuple
    src: tuple
    rows: tuple
    cols: tuple | None  # None: src is flat, and rows are its words


@dataclass(frozen=True)
class Pack:
    dst: tuple
    src: tuple | None  # None: every offset is -1
    offsets: tuple  # flat offsets into src; -1 entries become the zero element
    shape: tuple


@dataclass(frozen=True)
class Send:
    dst: int
    keys: tuple


@dataclass(frozen=True)
class Drop:
    keys: tuple


def add(plan, round_no, proc, *ops):
    """Place ``ops`` at the end of processor ``proc``'s list for ``round_no``."""
    plan.ops.setdefault((round_no, proc), []).extend(ops)


def run_references(mp):
    """Make the builders run their plans on :class:`ReferenceProgram`, with
    the ``pytest.MonkeyPatch`` ``mp``."""
    for module in (square, rect, sparse):
        mp.setattr(module, "PlanProgram", ReferenceProgram)


class ReferenceProgram(HandlerProgram, PlanProgram):
    """A :class:`~mpcmm.plan.PlanProgram` that also runs ``plan.ops`` as handlers."""

    def __init__(self, plan, spec):
        super().__init__(plan, spec)
        self.handled = {}  # round -> the processors with per-processor ops, ascending
        for round_no, p in sorted(plan.ops):
            self.handled.setdefault(round_no, []).append(p)

    def _check_ops(self, plan):
        trailing = plan.num_rounds + 1
        past = max((round_no for round_no, _ in plan.ops), default=0)
        if past > trailing:
            raise ValueError(f"an op is placed in round {past}, past the trailing "
                             f"local step (round {trailing})")

    def init_state(self, p):
        return dict(self.plan.init.get(p, {}))

    def active(self, round_no):
        return self.handled.get(round_no, ())

    def group_step(self, round_no):
        # The tiles that arrived as messages join their stores before the
        # round's group ops run.
        for p, inbox in self.inboxes.items():
            self.states[p] = _merge(self.states[p], inbox)
        self.inboxes = {}
        return super().group_step(round_no)

    def handler(self, round_no, p, state, inbox):
        store = _merge(state, inbox)
        sends = []
        self._exec(store, self.plan.ops.get((round_no, p), ()), sends, round_no, p)
        return store, sends

    def finalize(self):
        # The trailing step's ``group_step`` merged the last round's messages.
        for p, store in enumerate(self.states):
            self._exec(store, self.plan.ops.get((self.total_rounds + 1, p), ()), None, None, p)
        return super().finalize()

    def _exec(self, store, ops, sends, round_no, p):
        spec = self.spec
        try:
            for op in ops:
                _DISPATCH[type(op)](spec, store, op, sends)
        except KeyError as missing:
            if type(op) not in _DISPATCH:
                raise TypeError(f"unknown op {op!r}") from None
            raise MissingTile(p, round_no, missing.args[0]) from None


def gather_ops(procs, side, sources, src, at, width, name):
    """A gather of ``schedules.common.gather``'s description as per-processor
    ops; returns (sends, fills), dicts processor -> op list for the
    gather's round and for the next.

    For each row r and stack s, the words of the tile are grouped by the
    processor they count against and the source they read, in that order:
    the source's holder, or ``procs[r]`` for zeros of no source.  Each
    group is a ``Pack`` of the words at their offsets in the source (-1
    for a zero) at that processor, who sends it to ``procs[r]`` and drops
    it unless that is itself.  After all packs, each holder drops the
    sources that move.  In the next round ``procs[r]`` concatenates its
    packs (``Assemble``), packs the tile ``name(r, s)`` out of them and
    drops them.
    """
    sends, fills = {}, {}
    holders = np.array([holder for holder, *_ in sources] + [-1], dtype=np.int64)
    shape = (2, len(procs), side, side // width)
    src, at = (np.stack([np.broadcast_to(x[s], shape[1:]) for s in range(2)]) for x in (src, at))
    # per row and stack, the source and the offset in it of each word of the tile
    word_src = np.repeat(src, width, axis=3).reshape(2, len(procs), -1)
    unit = at[..., None]
    word_at = np.where(unit >= 0, unit * width + np.arange(width), -1).reshape(2, len(procs), -1)
    for s in range(2):
        for r, p in enumerate(np.asarray(procs).tolist()):
            tile, srcs = name(r, s), word_src[s, r]
            charged = np.where(srcs >= 0, holders[srcs], p)
            parts, order = [], []
            for holder, i in sorted(set(zip(charged.tolist(), srcs.tolist()))):
                words = np.flatnonzero((charged == holder) & (srcs == i))
                key = (*tile, "part", holder, i)
                offsets = tuple(word_at[s, r, words].tolist())
                ops = [Pack(key, sources[i][1] if i >= 0 else None, offsets, (len(words),))]
                if holder != p:
                    ops += [Send(p, (key,)), Drop((key,))]
                sends.setdefault(holder, []).extend(ops)
                parts.append(key)
                order.append(words)
            flat = (*tile, "parts")
            fills.setdefault(p, []).extend([
                Assemble(flat, tuple(parts), 0),
                Pack(tile, flat, tuple(np.argsort(np.concatenate(order)).tolist()), (side, side)),
                Drop((*parts, flat)),
            ])
    for holder, key, _, moves in sources:
        if moves:
            sends.setdefault(holder, []).append(Drop((key,)))
    return sends, fills


def gather_pieces(spec, states, procs, side, sources, src, at, width):
    """Fill an A and a B stack with the ops of :func:`gather_ops`, run
    processor by processor on ``states``; returns the stacks with the words
    held, sent and received per processor.

    A pack counts as sent by the processor that made it and received by
    the one it goes to, or as held when it stays, where the tile is made.
    """
    held, sent, received = (np.zeros(len(states), dtype=np.int64) for _ in range(3))
    name = lambda r, s: ("gathered", r, s)
    sends, fills = gather_ops(procs, side, sources, src, at, width, name)
    inboxes = {}
    for p, ops in sorted(sends.items()):
        before, out = set(states[p]), []
        for op in ops:
            _DISPATCH[type(op)](spec, states[p], op, out)
        held[p] = sum(tile.size for key, tile in states[p].items() if key not in before)
        for dst, tag, payload in out:
            sent[p] += payload.size
            received[dst] += payload.size
            inboxes.setdefault(dst, []).append(Message(p, dst, tag, payload))
    for p, ops in sorted(fills.items()):
        states[p] = _merge(states[p], inboxes.get(p, []))
        for op in ops:
            _DISPATCH[type(op)](spec, states[p], op, None)
    a, b = (np.stack([states[p].pop(name(r, s)) for r, p in enumerate(procs)]) for s in range(2))
    return a, b, (held, sent, received)


def _merge(state, inbox):
    """A copy of ``state`` with the tiles of ``inbox`` restored from their tags."""
    store = dict(state)
    for msg in inbox:
        payload, tag = msg.payload, msg.tag
        if len(tag) == 1:
            ((key, shape),) = tag
            store[key] = payload.reshape(shape)
            continue
        offset = 0
        for key, shape in tag:
            size = math.prod(shape)
            store[key] = payload[offset : offset + size].reshape(shape)
            offset += size
    return store


def _acc(spec, store, key, value):
    if key in store:
        store[key] = spec.vadd(store[key], value)
    else:
        store[key] = value


def _mac(spec, store, op, sends):
    _acc(spec, store, op.c, spec.matmul(store[op.a], store[op.b]))


def _mul_acc(spec, store, op, sends):
    _acc(spec, store, op.c, spec.vmul(store[op.a], store[op.b]))


def _acc_cell(spec, store, op, sends):
    _acc(spec, store, op.c, store[op.src].reshape(-1)[op.index : op.index + 1])


def _assemble(spec, store, op, sends):
    store[op.dst] = np.concatenate([store[k] for k in op.srcs], axis=op.axis)


def _slice(spec, store, op, sends):
    r0, r1 = op.rows
    tile = store[op.src]
    store[op.dst] = (tile[r0:r1] if op.cols is None else tile[r0:r1, op.cols[0]:op.cols[1]]).copy()


def _pack(spec, store, op, sends):
    flat = np.full(math.prod(op.shape), spec.zero, dtype=np.int64)
    for i, offset in enumerate(op.offsets):
        if offset >= 0:
            flat[i] = store[op.src].reshape(-1)[offset]
    store[op.dst] = flat.reshape(op.shape)


def _send(spec, store, op, sends):
    if sends is None:
        raise ValueError("Send op is not allowed in finalize")
    keys = op.keys
    if len(keys) == 1:
        # No op writes a stored tile in place, so the payload may share
        # the tile's memory; ravel copies only a non-contiguous tile.
        (key,) = keys
        tile = store[key]
        sends.append((op.dst, ((key, tile.shape),), tile.ravel()))
    else:
        tag = tuple((k, store[k].shape) for k in keys)
        sends.append((op.dst, tag, np.concatenate([store[k].ravel() for k in keys])))


def _drop(spec, store, op, sends):
    for k in op.keys:
        store.pop(k, None)


# Every per-processor op; an emit is not one (``finalize`` reads ``plan.emits``).
_DISPATCH = {
    Mac: _mac,
    MulAcc: _mul_acc,
    AccCell: _acc_cell,
    Assemble: _assemble,
    Slice: _slice,
    Pack: _pack,
    Send: _send,
    Drop: _drop,
}
