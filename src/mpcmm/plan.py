"""Dataflow plans: the instruction set round schedules compile to.

A schedule builder precomputes, per (round, processor), a short list of
ops over a key -> tile store.  The generic :class:`PlanProgram` then
interprets those ops inside the engine's handler.  Keys are tuples such
as ("A", i, q); payloads of bundled sends carry (key, shape) tags so the
receiver can restore tiles into its own store.

Per-processor ops::

    Mac(c, a, b)            c  (+)=  a @ b        (semiring block product)
    MulAcc(c, a, b)         c  (+)=  a (*) b      (elementwise)
    Acc(c, src)             c  (+)=  src          (elementwise)
    Assemble(dst, srcs, axis)   concatenate tiles
    Slice(dst, src, rows, cols) copy a sub-block
    Pack(dst, keys, shape)      gather scalars (None -> zero) into a tile
    Send(dst, keys)             bundle the listed tiles to processor dst
    Drop(keys)                  free tiles
    Emit(key, row, col, shape)  finalize only: place a tile in the output

Accumulator destinations that do not exist yet start as zero tiles, so
plans never pre-allocate outputs.

Group op.  :class:`Rotate` is one slot of a skewed block rotation (see
``schedules.common.rotation_fragment``) for all of the fragment's
processors at once.  The fragment keeps its A, B and C tiles, all
side x side, as (processors, side, side) stacks in a per-run object, so
executing a plan twice gives the same bytes.  A slot:

1. in the fragment's first slot, gathers each row's A and B tile (or
   their pieces, concatenated) out of its processor's store as it stands
   after the inbox merge;
2. multiplies the stacks row by row and accumulates into the C stack;
3. sends: moves the A and B tile of row i to rows ``a_to[i]`` and
   ``b_to[i]``, which must be permutations, or drops them if it has no
   sends.  The next slot multiplies whatever tile landed in each row;
4. in the last slot, hands each C tile back to its processor's store
   (accumulating like ``Mac``).

Ordering contract: in a round, group ops run before any processor's
per-processor ops, in the order they were added.  A group op past the
plan's last round runs at finalize, after the processor's ``at_final``
ops, in round order with the late per-processor ops (group op first
within a round).  There it must be a last slot, and a first slot only on
one processor.  The group's words (held, sent, received) come from the
static side, not from the stacks, and the engine charges them like
messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .engine import Program
from .semiring import SemiringSpec


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
class Acc:
    c: tuple
    src: tuple


@dataclass(frozen=True)
class AccCell:
    c: tuple
    src: tuple
    index: int  # flat index into src


@dataclass(frozen=True)
class Cell:
    dst: tuple
    src: tuple
    index: int  # flat index into src; dst becomes a (1,) array


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
    cols: tuple


@dataclass(frozen=True)
class Pack:
    dst: tuple
    keys: tuple  # scalar keys, None entries become the zero element
    shape: tuple


@dataclass(frozen=True)
class Send:
    dst: int
    keys: tuple


@dataclass(frozen=True)
class Drop:
    keys: tuple


@dataclass(frozen=True)
class Emit:
    key: tuple
    row: int
    col: int
    shape: tuple


class Rotate(NamedTuple):
    """One rotation slot for every processor of a fragment (see module doc)."""

    frag: int  # the slots of one fragment share its tile stacks
    procs: np.ndarray  # processor of each stack row
    side: int  # every A, B and C tile is side x side
    gather: tuple | None  # first slot: per row ((a_pieces, a_axis), (b_pieces, b_axis))
    a_to: np.ndarray | None  # stack row each A tile is sent to; None drops them
    b_to: np.ndarray | None
    c_keys: tuple | None  # last slot: per row, the store key C is handed back under


@dataclass
class Plan:
    """Per-round, per-processor op lists plus initial state and outputs."""

    num_procs: int
    num_rounds: int
    min_memory: int = 1
    init: dict = field(default_factory=dict)  # proc -> {key: array}
    ops: dict = field(default_factory=dict)  # (round, proc) -> [op]; see PlanProgram
    groups: dict = field(default_factory=dict)  # round -> [Rotate]
    fragments: int = 0  # rotation fragments numbered so far
    final_ops: dict = field(default_factory=dict)  # proc -> [op]
    emits: dict = field(default_factory=dict)  # proc -> [Emit]

    def add(self, round_no, proc, *ops):
        self.ops.setdefault((round_no, proc), []).extend(ops)

    def add_group(self, round_no, op):
        self.groups.setdefault(round_no, []).append(op)

    def at_final(self, proc, *ops):
        self.final_ops.setdefault(proc, []).extend(ops)

    def emit(self, proc, key, row, col, shape):
        self.emits.setdefault(proc, []).append(Emit(key, row, col, shape))

    def set_init(self, proc, key, array):
        self.init.setdefault(proc, {})[key] = np.asarray(array, dtype=np.int64)


class PlanProgram(Program):
    def __init__(self, plan: Plan, spec: SemiringSpec):
        self.plan = plan
        self.spec = spec
        self.num_procs = plan.num_procs
        self.total_rounds = plan.num_rounds
        self.min_memory = plan.min_memory
        last = plan.num_rounds
        procs = plan.num_procs

        active = {}
        late = []  # (round, group ops first, proc, item)
        for (round_no, p), ops in plan.ops.items():
            if round_no > last:
                late.append((round_no, 1, p, (None, ops)))
            else:
                active.setdefault(round_no, set()).add(p)
        # Static group words per round: held at its end, sent, received.
        self.group_words = {}
        for round_no, group_ops in plan.groups.items():
            if round_no > last:
                for op in group_ops:
                    if op.a_to is not None or op.c_keys is None:
                        raise ValueError("a rotation slot past the last round runs at finalize, "
                                         "so it must be the last slot")
                    if op.gather is not None and len(op.procs) > 1:
                        raise ValueError("a rotation's first slot runs at finalize only on "
                                         "one processor")
                    for row, p in enumerate(op.procs.tolist()):
                        late.append((round_no, 0, p, (op, row)))
                continue
            held, sent, received = (np.zeros(procs, dtype=np.int64) for _ in range(3))
            for op in group_ops:
                tile = op.side * op.side
                if op.gather is not None or op.c_keys is not None:
                    active.setdefault(round_no, set()).update(op.procs.tolist())
                if op.c_keys is None:
                    np.add.at(held, op.procs, tile)
                if op.a_to is not None:
                    for to in (op.a_to, op.b_to):
                        if not np.array_equal(np.sort(to), np.arange(len(op.procs))):
                            raise ValueError("rotation sends must permute the stack rows")
                        np.add.at(sent, op.procs, tile)
                        np.add.at(received, op.procs[to], tile)
            self.group_words[round_no] = (held, sent, received)
        self.active_procs = {round_no: sorted(ps) for round_no, ps in active.items()}
        # Ops added to rounds past the last one run at finalize, in round
        # order, after the processor's ``at_final`` ops; within a round a
        # group op's slot comes first.  Items are (Rotate, row) or (None, ops).
        self.late_ops = {}
        for _, _, p, item in sorted(late, key=lambda entry: entry[:2]):
            self.late_ops.setdefault(p, []).append(item)
        self.start()

    def start(self):
        self.stacks = {}  # fragment -> its _Stacks in the current run

    def init_state(self, p):
        return dict(self.plan.init.get(p, {}))

    def active(self, round_no):
        return self.active_procs.get(round_no, ())

    def _merge(self, state, inbox):
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

    def _exec(self, store, ops, sends=None):
        spec = self.spec
        for op in ops:
            try:
                run_op = _DISPATCH[type(op)]
            except KeyError:
                raise TypeError(f"unknown op {op!r}") from None
            run_op(spec, store, op, sends)

    def group_step(self, round_no, states, inboxes):
        group_ops = self.plan.groups.get(round_no)
        if group_ops is None:
            return None
        for op in group_ops:
            if op.gather is not None:
                a, b = _gather_stacks(op, states, inboxes, self._merge)
                stacks = self.stacks[op.frag] = _Stacks(a, b)
            else:
                stacks = self.stacks[op.frag]
            self._slot(op, stacks)
            if op.c_keys is not None:
                del self.stacks[op.frag]
                for p, key, tile in zip(op.procs.tolist(), op.c_keys, stacks.c):
                    store = dict(states[p])
                    _acc(self.spec, store, key, tile)
                    states[p] = store
        return self.group_words[round_no]

    def _slot(self, op, stacks):
        """Multiply each row's A and B tile into its C tile, then send or drop A and B."""
        spec = self.spec
        rows = len(op.procs)
        first = stacks.c is None
        if first:
            stacks.c = np.empty((rows, op.side, op.side), dtype=np.int64)
        # A few rows at a time, so that temporaries stay small.
        step = max(_SLOT_WORDS // max(op.side * op.side, 1), 1)
        for r0 in range(0, rows, step):
            r1 = r0 + step
            product = spec.matmul(stacks.a[stacks.a_at[r0:r1]], stacks.b[stacks.b_at[r0:r1]])
            stacks.c[r0:r1] = product if first else spec.vadd(stacks.c[r0:r1], product)
        if op.a_to is None:
            stacks.a = stacks.b = None
        else:
            stacks.a_at = _route(stacks.a_at, op.a_to)
            stacks.b_at = _route(stacks.b_at, op.b_to)

    def _late_slot(self, op, row, store):
        """A last slot at finalize: the fragment multiplies once, then row's C goes home."""
        if op.gather is not None:  # a one-processor fragment
            a, b = _gather_row(op, 0, store)
            self.stacks[op.frag] = _Stacks(a[None], b[None])
        stacks = self.stacks[op.frag]
        if stacks.a is not None:
            self._slot(op, stacks)
        _acc(self.spec, store, op.c_keys[row], stacks.c[row])

    def handler(self, round_no, p, state, inbox):
        store = self._merge(state, inbox)
        sends = []
        self._exec(store, self.plan.ops.get((round_no, p), ()), sends)
        return store, sends

    def finalize(self, p, state, inbox):
        store = self._merge(state, inbox)
        self._exec(store, self.plan.final_ops.get(p, ()))
        for group_op, item in self.late_ops.get(p, ()):
            if group_op is None:
                self._exec(store, item)
            else:
                self._late_slot(group_op, item, store)
        out = []
        for e in self.plan.emits.get(p, ()):
            block = store.get(e.key)
            if block is None:
                block = np.full(e.shape, self.spec.zero, dtype=np.int64)
            out.append((e.row, e.col, block.reshape(e.shape)))
        return out


# A slot multiplies at most this many words of A (and of B) per kernel call.
_SLOT_WORDS = 1 << 15


class _Stacks:
    """A rotation fragment's tiles during one run.

    ``a`` and ``b`` keep the tiles in the rows they were gathered into,
    and ``a_at[i]`` is the gathered row of the A tile now at row i.  A
    send permutes ``a_at`` along ``a_to``, and a product reads row i's
    tile through it, so each row multiplies exactly the tile the sends
    routed to it without a copy of the whole stack per slot (on large
    tiles those copies cost more in fresh pages than the routing saves).
    ``c`` is the C stack, accumulated in place: no store sees it before
    the last slot hands it back.
    """

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.a_at = self.b_at = np.arange(len(a))
        self.c = None


def _take(store, pieces, axis, side):
    """Pop a tile, or its pieces concatenated along ``axis``, out of a store."""
    if len(pieces) == 1:
        tile = store.pop(pieces[0])
    else:
        tile = np.concatenate([store.pop(k) for k in pieces], axis=axis)
    if tile.shape != (side, side):
        raise ValueError(f"rotation tile {pieces[0]!r} has shape {tile.shape}, not {side}x{side}")
    return tile


def _gather_row(op, row, store):
    (a_pieces, a_axis), (b_pieces, b_axis) = op.gather[row]
    return _take(store, a_pieces, a_axis, op.side), _take(store, b_pieces, b_axis, op.side)


def _gather_stacks(op, states, inboxes, merge):
    """First slot: each row's tiles out of its processor's merged store."""
    shape = (len(op.procs), op.side, op.side)
    a, b = np.empty(shape, dtype=np.int64), np.empty(shape, dtype=np.int64)
    for row, p in enumerate(op.procs.tolist()):
        store = merge(states[p], inboxes.pop(p, ()))
        a[row], b[row] = _gather_row(op, row, store)
        states[p] = store
    return a, b


def _route(at, to):
    """Send the tile at row i to row ``to[i]``: permute the row -> tile index."""
    out = np.empty_like(at)
    out[to] = at
    return out


def _acc(spec, store, key, value):
    if key in store:
        store[key] = spec.vadd(store[key], value)
    else:
        store[key] = value


def _mac(spec, store, op, sends):
    _acc(spec, store, op.c, spec.matmul(store[op.a], store[op.b]))


def _mul_acc(spec, store, op, sends):
    _acc(spec, store, op.c, spec.vmul(store[op.a], store[op.b]))


def _acc_op(spec, store, op, sends):
    _acc(spec, store, op.c, store[op.src])


def _acc_cell(spec, store, op, sends):
    _acc(spec, store, op.c, store[op.src].reshape(-1)[op.index : op.index + 1])


def _cell(spec, store, op, sends):
    store[op.dst] = store[op.src].reshape(-1)[op.index : op.index + 1].copy()


def _assemble(spec, store, op, sends):
    store[op.dst] = np.concatenate([store[k] for k in op.srcs], axis=op.axis)


def _slice(spec, store, op, sends):
    r0, r1 = op.rows
    c0, c1 = op.cols
    store[op.dst] = store[op.src][r0:r1, c0:c1].copy()


def _pack(spec, store, op, sends):
    flat = np.full(math.prod(op.shape), spec.zero, dtype=np.int64)
    for i, key in enumerate(op.keys):
        if key is not None:
            flat[i] = store[key].reshape(-1)[0]
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


# Every op except Emit, which only ``finalize`` reads from ``plan.emits``.
_DISPATCH = {
    Mac: _mac,
    MulAcc: _mul_acc,
    Acc: _acc_op,
    AccCell: _acc_cell,
    Cell: _cell,
    Assemble: _assemble,
    Slice: _slice,
    Pack: _pack,
    Send: _send,
    Drop: _drop,
}


def assemble_output(result_outputs, rows, cols, spec: SemiringSpec) -> np.ndarray:
    """Stitch emitted blocks into a dense array (overlaps are summed)."""
    data = spec.zeros(rows, cols)
    for blocks in result_outputs.values():
        for r0, c0, block in blocks:
            block = np.asarray(block)
            if block.ndim == 1:
                block = block.reshape(1, -1)
            r1, c1 = r0 + block.shape[0], c0 + block.shape[1]
            data[r0:r1, c0:c1] = spec.vadd(data[r0:r1, c0:c1], block)
    return data
