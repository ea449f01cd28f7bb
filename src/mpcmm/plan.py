"""Dataflow plans: the instruction set round schedules compile to.

A schedule builder precomputes, per (round, processor), a short list of
ops over a key -> tile store.  The generic :class:`PlanProgram` then
interprets those ops inside the engine's handler.  Keys are tuples such
as ("A", i, q); payloads of bundled sends carry (key, shape) tags so the
receiver can restore tiles into its own store.

Per-processor ops::

    Mac(c, a, b)            c  (+)=  a @ b        (semiring block product)
    MulAcc(c, a, b)         c  (+)=  a (*) b      (elementwise)
    AccCell(c, src, index)  c  (+)=  flat word ``index`` of src, as a (1,) tile
    Assemble(dst, srcs, axis)   concatenate tiles
    Slice(dst, src, rows, cols) copy a sub-block
    Pack(dst, keys, shape)      gather scalars (None -> zero) into a tile
    Send(dst, keys)             bundle the listed tiles to processor dst
    Drop(keys)                  free tiles
    Emit(key, row, col, shape)  finalize only: place a tile in the output

Accumulator destinations that do not exist yet start as zero tiles, so
plans never pre-allocate outputs.  An op that reads a key its store does
not hold raises :class:`MissingTile`.

Group ops run one round of a fragment for all of its processors at once,
over stacks kept in a per-run object, so executing a plan twice gives the
same bytes.  ``PlanProgram`` dispatches them by type; each kind supplies
its static words and its step.

:class:`Gather` fills a fragment's A and B stacks, (processors, side,
side) each.  Row i's tile is k equal ``(holder, key, recipe)`` pieces
concatenated along an axis, read out of each holder's store after its
inbox merge: ``None`` moves the stored tile ``key`` out, a ``Slice`` or
``Pack`` recipe is run there.  A piece that several rows use is read
once.  Its words count as sent by its holder and received by the row's
processor, or as held when the two are one.

:class:`Rotate` is one slot of a skewed block rotation (see
``schedules.common.rotation_fragment``) over the stacks a gather filled
and the fragment's C stack.  A slot:

1. multiplies the stacks row by row and accumulates into the C stack;
2. sends: moves the A and B tile of row i to rows ``a_to[i]`` and
   ``b_to[i]``, which must be permutations, or drops them if it has no
   sends (``schedules.rect.schedule_ndn`` then gathers the next ones).
   The next slot multiplies whatever tile landed in each row;
3. in the last slot, hands each C tile back to its processor's store
   (accumulating like ``Mac``).

:class:`Fold` is one round of a fan-in tree sum (see
``schedules.rect.tree_sum_fragment``) for every group of a fragment.  A
group has t members, each holding one addend of ``entries`` words; with
fan-in ``width`` its members fall into m = ceil(t / width) chunks of
consecutive members.

1. Step 0 pops each member's addend out of its store (after the inbox
   merge) into a (groups, t, entries) stack and scatters it: entry e of
   a member in chunk c goes to member (e * m + c) mod t, the entry's
   collector for that chunk.  Entries a member collects itself stay.
2. Step s >= 1 folds level s - 1.  The holders of entry e form a list
   (the collectors of chunks 0 .. m - 1 at level 0); each run of
   ``width`` consecutive holders folds with ``vadd`` into its first one,
   the others in list order, so ``vadd`` sees the operands in the order
   that per-entry ``AccCell`` ops would give it.  The holders left are those
   of the next level: holder i after step s is member
   (e * m + i * width**(s - 1)) mod t.
3. If more than one holder is left, each holder not first in its run
   of the next level forwards its value to that run's first holder, in
   the same round: fold before forward.
4. The step whose fold leaves one holder (``Fold.last_step``) sends
   nothing.  It hands each finished entry to its holder's store under
   ``out_keys[g][e]``, as a (1,) tile accumulated like ``AccCell``.

In a round, group ops run before any processor's per-processor ops, in
the order they were added.  Round ``num_rounds + 1`` is the trailing
local step: the engine runs its group ops after the last barrier, then
each processor's ``finalize`` runs its ops of that round and its emits.
It is local, so nothing in it may send, and no op may be placed later.
A group op's words (held, sent, received) come from its static shape,
not from the stacks, and the engine charges them like messages.  Its
held words are those it keeps out of the stores at the end of the
round, not those in flight; a processor whose store it does not touch
in a round is left out of ``active``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .engine import MpcError, Program
from .semiring import SemiringSpec


class MissingTile(MpcError):
    """An op read a key that its processor's store does not hold."""

    def __init__(self, processor, round_no, key):
        where = "at finalize" if round_no is None else f"in round {round_no}"
        super().__init__(f"processor {processor} holds no tile {key!r} {where}")
        self.processor = processor
        self.round = round_no
        self.key = key


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


class Gather(NamedTuple):
    """Fill a fragment's A and B stacks with input pieces (see module doc)."""

    frag: int  # a fragment's gathers and slots share its tile stacks
    procs: np.ndarray  # processor of each stack row: the consumer of its tiles
    side: int  # every A and B tile is side x side
    tiles: tuple  # per row ((a_pieces, a_axis), (b_pieces, b_axis)); see the module doc


class Rotate(NamedTuple):
    """One rotation slot for every processor of a fragment (see module doc)."""

    frag: int  # a fragment's gathers and slots share its tile stacks
    procs: np.ndarray  # processor of each stack row
    side: int  # every A, B and C tile is side x side
    a_to: np.ndarray | None  # stack row each A tile is sent to; None drops them
    b_to: np.ndarray | None
    c_keys: tuple | None  # last slot: per row, the store key C is handed back under


class Fold(NamedTuple):
    """One tree-sum round for every group of a fragment (see module doc)."""

    frag: int  # the steps of one fragment share its value stack
    members: np.ndarray  # (groups, t): the processor of each member
    width: int  # fan-in of every level, >= 2
    entries: int  # words per addend
    step: int  # 0 scatters; s >= 1 folds level s - 1, then forwards or hands out
    addend_keys: tuple  # per group, per member: the store key of its addend
    out_keys: tuple  # per group, per entry: the key its finished value is handed out under

    @property
    def chunks(self) -> int:
        return -(-self.members.shape[1] // self.width)

    @property
    def last_step(self) -> int:
        """The hand-out step: the first whose fold leaves one holder per entry."""
        step, holders = 1, self.chunks
        while holders > 1:
            step, holders = step + 1, -(-holders // self.width)
        return step

    def final_holders(self) -> np.ndarray:
        """(groups, entries): the processor each finished entry is handed to."""
        t = self.members.shape[1]
        return self.members[:, np.arange(self.entries) * self.chunks % t]


@dataclass
class Plan:
    """Per-round, per-processor op lists plus initial state and outputs."""

    num_procs: int
    num_rounds: int
    min_memory: int = 1
    init: dict = field(default_factory=dict)  # proc -> {key: array}
    ops: dict = field(default_factory=dict)  # (round, proc) -> [op]; see PlanProgram
    groups: dict = field(default_factory=dict)  # round -> [Gather | Rotate | Fold]
    fragments: int = 0  # group-op fragments numbered so far
    emits: dict = field(default_factory=dict)  # proc -> [Emit]

    def add(self, round_no, proc, *ops):
        self.ops.setdefault((round_no, proc), []).extend(ops)

    def add_group(self, round_no, op):
        self.groups.setdefault(round_no, []).append(op)

    @property
    def final_ops(self) -> dict:
        """Empty, for ``perfbench/probes.py``: the trailing step's ops are round R + 1's."""
        return {}

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
        procs = plan.num_procs
        trailing = plan.num_rounds + 1  # the local step after the last barrier
        past = max([round_no for round_no, _ in plan.ops] + list(plan.groups), default=0)
        if past > trailing:
            raise ValueError(f"an op is placed in round {past}, past the trailing "
                             f"local step (round {trailing})")

        active = {}
        for round_no, p in plan.ops:
            active.setdefault(round_no, set()).add(p)
        # Static group words per round: held at its end, sent, received.
        self.group_words = {}
        for round_no, group_ops in plan.groups.items():
            words = tuple(np.zeros(procs, dtype=np.int64) for _ in range(3))
            touched = active.setdefault(round_no, set())
            for op in group_ops:
                touched.update(_group_kind(op).words(op, *words))
            if round_no == trailing and any(figures.any() for figures in words):
                raise ValueError(f"a group op in the trailing local step (round {trailing}) "
                                 "must hold, send and receive nothing")
            self.group_words[round_no] = words
        self.active_procs = {round_no: sorted(ps) for round_no, ps in active.items()}
        self.start()

    def start(self):
        self.stacks = {}  # fragment -> its stacks in the current run

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

    def _exec(self, store, ops, sends, round_no, p):
        spec = self.spec
        try:
            for op in ops:
                _DISPATCH[type(op)](spec, store, op, sends)
        except KeyError as missing:
            if type(op) not in _DISPATCH:
                raise TypeError(f"unknown op {op!r}") from None
            raise MissingTile(p, round_no, missing.args[0]) from None

    def group_step(self, round_no, states, inboxes):
        group_ops = self.plan.groups.get(round_no)
        if group_ops is None:
            return None
        for op in group_ops:
            _GROUP_DISPATCH[type(op)].step(self, op, round_no, states, inboxes)
        return self.group_words[round_no]

    def handler(self, round_no, p, state, inbox):
        store = self._merge(state, inbox)
        sends = []
        self._exec(store, self.plan.ops.get((round_no, p), ()), sends, round_no, p)
        return store, sends

    def finalize(self, p, state, inbox):
        store = self._merge(state, inbox)
        self._exec(store, self.plan.ops.get((self.total_rounds + 1, p), ()), None, None, p)
        out = []
        for e in self.plan.emits.get(p, ()):
            block = store.get(e.key)
            if block is None:
                block = np.full(e.shape, self.spec.zero, dtype=np.int64)
            out.append((e.row, e.col, block.reshape(e.shape)))
        return out


class _GroupKind(NamedTuple):
    """How ``PlanProgram`` runs one kind of group op."""

    # (op, held, sent, received): add the op's static words to the three
    # arrays over processors; returns the processors whose stores it changes.
    words: Callable
    # (program, op, round_no, states, inboxes): run the op in its round.
    step: Callable


def _group_kind(op):
    try:
        return _GROUP_DISPATCH[type(op)]
    except KeyError:
        raise TypeError(f"unknown group op {op!r}") from None


def _pop(store, key, p, round_no):
    try:
        return store.pop(key)
    except KeyError:
        raise MissingTile(p, round_no, key) from None


# -- Gather and Rotate -------------------------------------------------------

# A slot multiplies at most this many words of A (and of B) per kernel call.
_SLOT_WORDS = 1 << 15


class _Stacks:
    """A rotation fragment's tiles during one run.

    ``a`` and ``b`` keep the tiles in the rows the last gather filled,
    and ``a_at[i]`` is the gathered row of the A tile now at row i.  A
    send permutes ``a_at`` along ``a_to``, and a product reads row i's
    tile through it, so each row multiplies exactly the tile the sends
    routed to it without a copy of the whole stack per slot (on large
    tiles those copies cost more in fresh pages than the routing saves).
    ``c`` is the C stack, accumulated in place: no store sees it before
    the last slot hands it back.
    """

    c = None

    def fill(self, a, b):
        self.a, self.b = a, b
        self.a_at = self.b_at = np.arange(len(a))


def _gather_words(op, held, sent, received):
    for p, row in zip(op.procs.tolist(), op.tiles):
        for pieces, _ in row:
            if not pieces or op.side % len(pieces):
                raise ValueError(f"a gathered {op.side}x{op.side} tile cannot be "
                                 f"{len(pieces)} equal pieces")
            words = op.side * op.side // len(pieces)
            for holder, _, _ in pieces:
                if holder == p:
                    held[p] += words
                else:
                    sent[holder] += words
                    received[p] += words
    return sorted({holder for row in op.tiles for pieces, _ in row for holder, _, _ in pieces})


def _gather_step(program, op, round_no, states, inboxes):
    holders = {holder for row in op.tiles for pieces, _ in row for holder, _, _ in pieces}
    stores = {p: program._merge(states[p], inboxes.pop(p, ())) for p in holders}
    values = {}  # (holder, key) -> piece

    def read(holder, key, recipe):
        if (holder, key) not in values:
            store = stores[holder]
            try:
                if recipe is not None:
                    _DISPATCH[type(recipe)](program.spec, store, recipe, None)
                values[holder, key] = store.pop(key)
            except KeyError as missing:
                raise MissingTile(holder, round_no, missing.args[0]) from None
        return values[holder, key]

    shape = (len(op.procs), op.side, op.side)
    a, b = np.empty(shape, dtype=np.int64), np.empty(shape, dtype=np.int64)
    for row, tiles in enumerate(op.tiles):
        for stack, (pieces, axis) in zip((a, b), tiles):
            share = op.side // len(pieces)
            part = (share, op.side) if axis == 0 else (op.side, share)
            parts = [read(*piece) for piece in pieces]
            for (_, key, _), value in zip(pieces, parts):
                if value.shape != part:
                    raise ValueError(f"gathered piece {key!r} has shape {value.shape}, not {part}")
            stack[row] = np.concatenate(parts, axis=axis)
    program.stacks.setdefault(op.frag, _Stacks()).fill(a, b)
    for p, store in stores.items():
        states[p] = store


def _rotate_words(op, held, sent, received):
    tile = op.side * op.side
    if op.c_keys is None:
        np.add.at(held, op.procs, tile)
    if op.a_to is not None:
        for to in (op.a_to, op.b_to):
            if not np.array_equal(np.sort(to), np.arange(len(op.procs))):
                raise ValueError("rotation sends must permute the stack rows")
            np.add.at(sent, op.procs, tile)
            np.add.at(received, op.procs[to], tile)
    return () if op.c_keys is None else op.procs.tolist()


def _rotate_step(program, op, round_no, states, inboxes):
    stacks = program.stacks[op.frag]
    _slot(program.spec, op, stacks)
    if op.c_keys is not None:
        del program.stacks[op.frag]
        for p, key, tile in zip(op.procs.tolist(), op.c_keys, stacks.c):
            store = dict(states[p])
            _acc(program.spec, store, key, tile)
            states[p] = store


def _slot(spec, op, stacks):
    """Multiply each row's A and B tile into its C tile, then route A and B along the sends."""
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
    if op.a_to is not None:
        stacks.a_at = _route(stacks.a_at, op.a_to)
        stacks.b_at = _route(stacks.b_at, op.b_to)


def _route(at, to):
    """Send the tile at row i to row ``to[i]``: permute the row -> tile index."""
    out = np.empty_like(at)
    out[to] = at
    return out


# -- Fold --------------------------------------------------------------------


def _fold_holders(op, step):
    """(entries, holders): the member index of each holder left by ``step``'s fold."""
    t = op.members.shape[1]
    stride = op.width ** (step - 1)
    count = -(-t // (stride * op.width))
    return (np.arange(op.entries)[:, None] * op.chunks + np.arange(count) * stride) % t


def _fold_words(op, held, sent, received):
    t, width = op.members.shape[1], op.width
    if width < 2:
        raise ValueError("a fold needs a fan-in width of at least 2")
    if not 0 <= op.step <= op.last_step:
        raise ValueError(f"fold step {op.step} is not one of 0 .. {op.last_step}")

    def add(figures, per_member):
        np.add.at(figures, op.members, np.broadcast_to(per_member, op.members.shape))

    if op.step == 0:
        member = np.arange(t)
        collector = (np.arange(op.entries)[:, None] * op.chunks + member // width) % t
        own = collector == member
        kept = own.sum(axis=0)
        add(held, kept)
        add(sent, op.entries - kept)
        add(received, np.bincount(collector[~own], minlength=t))
        return op.members.ravel().tolist()
    if op.step == op.last_step:
        return op.final_holders().ravel().tolist()
    holders = _fold_holders(op, op.step)
    position = np.arange(holders.shape[1])
    forward = position % width != 0
    target = holders[:, position // width * width]
    add(held, np.bincount(holders[:, ~forward].ravel(), minlength=t))
    add(sent, np.bincount(holders[:, forward].ravel(), minlength=t))
    add(received, np.bincount(target[:, forward].ravel(), minlength=t))
    return ()


def _fold_step(program, op, round_no, states, inboxes):
    if op.step == 0:
        program.stacks[op.frag] = _scatter(op, round_no, states, inboxes, program._merge)
        return
    values = program.stacks[op.frag] = _chunk_fold(program.spec, program.stacks[op.frag],
                                                   op.width)
    if op.step == op.last_step:
        del program.stacks[op.frag]
        flat = values.reshape(-1)  # (groups, 1, entries), contiguous
        for p, cells in _handouts(op).items():
            store = dict(states[p])
            for i in cells:
                g, e = divmod(i, op.entries)
                _acc(program.spec, store, op.out_keys[g][e], flat[i : i + 1])
            states[p] = store


def _scatter(op, round_no, states, inboxes, merge):
    """Step 0: each member's addend out of its processor's merged store."""
    groups, t = op.members.shape
    values = np.empty((groups, t, op.entries), dtype=np.int64)
    for g, (procs, keys) in enumerate(zip(op.members.tolist(), op.addend_keys)):
        for l, (p, key) in enumerate(zip(procs, keys)):
            store = merge(states[p], inboxes.pop(p, ()))
            addend = _pop(store, key, p, round_no)
            if addend.size != op.entries:
                raise ValueError(f"fold addend {key!r} has {addend.size} words, "
                                 f"not {op.entries}")
            values[g, l] = addend.reshape(-1)
            states[p] = store
    return values


def _chunk_fold(spec, values, width):
    """Fold each run of ``width`` consecutive holders (axis 1) into its first, in order."""
    out = values[:, ::width].copy()
    for j in range(1, min(width, values.shape[1])):
        part = values[:, j::width]
        runs = part.shape[1]
        out[:, :runs] = spec.vadd(out[:, :runs], part)
    return out


def _handouts(op):
    """Processor -> flat indices g * entries + e of the finished entries handed to it."""
    procs = op.final_holders().ravel()
    order = np.argsort(procs, kind="stable")
    cuts = np.flatnonzero(np.diff(procs[order])) + 1
    return {int(procs[part[0]]): part.tolist() for part in np.split(order, cuts)}


_GROUP_DISPATCH = {
    Gather: _GroupKind(_gather_words, _gather_step),
    Rotate: _GroupKind(_rotate_words, _rotate_step),
    Fold: _GroupKind(_fold_words, _fold_step),
}


# -- per-processor ops -------------------------------------------------------


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
    AccCell: _acc_cell,
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
