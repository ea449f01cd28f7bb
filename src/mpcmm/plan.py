"""Dataflow plans: the instruction set round schedules compile to.

A schedule builder precomputes the ops of every round over key -> tile
stores: group ops, each for many processors at once, and per (round,
processor) a list of per-processor ops.  The generic :class:`PlanProgram`
interprets both inside the engine's hooks.  Keys are tuples such as
("A", i, q); payloads of bundled sends carry (key, shape) tags so the
receiver can restore tiles into its own store.

Per-processor ops.  The shipped builders place none: ``Slice`` and
``Pack`` ship only as gather recipes.  The other kinds are the
instruction set of the test references, whose ops ``plan.ops`` holds
(``perfbench/probes.py`` counts them)::

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

All kinds share one store contract.  A processor's store in a round is
its state after that round's messages arrive.  Before a round's first
group op, each processor whose store one of the round's group ops
changes (the processors the kind's words function returns) gets one copy
of its store with its inbox merged, and the group ops change that copy
in place; the processor's per-processor ops then run on it.  A group op
hands values to stores only through ``_give``, which accumulates like
``Mac``: a key already held becomes old (+) new.

:class:`Gather` fills a fragment's A and B stacks, (processors, side,
side) each.  Row i's tile is k equal ``(holder, key, recipe)`` pieces
concatenated along an axis, read out of each holder's store: ``None``
moves the stored tile ``key`` out, a ``Slice`` or ``Pack`` recipe is run
there.  A piece that several rows use is read once.  Its words count as
sent by its holder and received by the row's processor, or as held when
the two are one.

:class:`Rotate` is one slot of a skewed block rotation (see
``schedules.common.rotation_fragment``) over the stacks a gather filled
and the fragment's C stack.  A slot:

1. multiplies the stacks row by row and accumulates into the C stack;
2. sends: moves the A and B tile of row i to rows ``a_to[i]`` and
   ``b_to[i]``, which must be permutations, or drops them if it has no
   sends (``schedules.rect.schedule_ndn`` then gathers the next ones).
   The next slot multiplies whatever tile landed in each row;
3. in the last slot, gives each C tile to its processor's store.

:class:`Scatter` carries values across one barrier into stores (see
``schedules.rect.tree_sum_fragment``, the sparse layers' hand-back and
square's redistribution): a move in round rd and its give, with the
same ``frag``, in round rd + 1, which may be the trailing step.

1. The move pops tile ``keys[i]`` out of processor ``procs[i]``'s
   store, for every i.  The tiles are cut, in order, into equally many
   units of ``shape``, and unit u goes to processor ``to[u]``, or is
   dropped if that is -1.  It counts as sent by its holder and received
   by ``to[u]``, or as held when the two are one.
2. The give sums, for each destination i, the units that ``take`` (rows
   unit, destination; destinations ascending) lists for it, left to
   right with ``vadd``, and hands the sum to processor ``procs[i]``
   under ``keys[i]``.  Its (processor, key) pairs must be distinct and
   it takes each unit at most once.  A unit that was not moved to its
   destination's processor raises :class:`MissingTile` there.

A destination that holds its key already gets old (+) (x1 (+) x2 ...),
where the per-entry tree-sum reference (and ``Fold``, which this kind
replaced) added ((old (+) x1) (+) x2) ...; semiring addition is
associative, so the words are equal.

:class:`Fetch` is one round of the sparse value fetch (see
``schedules.sparse``) for every processor at once, over columnar
(r, k, j) term arrays.  Like a tree-sum level, it sums before it moves.

1. It folds first.  For each column (r, k, j) of ``fold``, processor r
   adds a(r, k) (*) b(k, j) into its store cell ("c", r, j), a (1,) tile:
   one elementwise product, then one sum per cell with ``vadd``, left to
   right, given to the cell.  a(r, k) is read in r's store.
   b(k, j) is read in r's store too when j == r; the terms with j != r
   take the values the previous round moved, and must be its ``move``
   columns in their order.
2. Then it moves.  b(k, j) of each column (r, k, j) of ``move`` is read
   in the store of processor j, which holds column j of B and keeps it,
   and is in flight to r until the next round's fold.  It counts as sent
   by j and received by r, so r's next round charges it like an inbox.

The processors it folds into are its ``active`` ones; a sender's store
does not change.

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


class Scatter(NamedTuple):
    """A move, or the give that ends it a round later (see module doc)."""

    frag: int  # a move and its give share the units in flight
    shape: tuple  # every unit moved and given is a tile of this shape
    procs: np.ndarray  # move: the holder of each tile; give: the processor of each destination
    keys: tuple  # move: the key of each tile; give: the key of each destination
    to: np.ndarray | None  # move: the receiver of each unit, -1 drops it; None in a give
    take: np.ndarray | None  # give: (2, units) rows unit, destination; None in a move


class Fetch(NamedTuple):
    """One round of the sparse value fetch for every processor (see module doc)."""

    frag: int  # the rounds of one fetch share the values in flight
    fold: np.ndarray  # (3, terms) rows r, k, j: c(r, j) (+)= a(r, k) (*) b(k, j) at r
    move: np.ndarray  # (3, values) rows r, k, j: b(k, j) moves from j to r


@dataclass
class Plan:
    """Per-round, per-processor op lists plus initial state and outputs."""

    num_procs: int
    num_rounds: int
    min_memory: int = 1
    init: dict = field(default_factory=dict)  # proc -> {key: array}
    ops: dict = field(default_factory=dict)  # (round, proc) -> [op]; see PlanProgram
    # round -> [Gather | Rotate | Scatter | Fetch], run before that round's ``ops``
    groups: dict = field(default_factory=dict)
    fragments: int = 0  # group-op fragments numbered so far
    emits: dict = field(default_factory=dict)  # proc -> [Emit]

    def add(self, round_no, proc, *ops):
        self.ops.setdefault((round_no, proc), []).extend(ops)

    def add_group(self, round_no, op):
        self.groups.setdefault(round_no, []).append(op)

    def scatter(self, round_no, shape, holders, keys, to, sums, sum_keys):
        """Add a :class:`Scatter`: in ``round_no`` tile ``keys[i]`` leaves
        ``holders[i]`` and unit u goes to ``to[u]`` (-1 drops it); in the
        next round unit u adds into destination ``sums[u]`` (-1: none),
        handed in at its receiver under ``sum_keys[sums[u]]``."""
        frag = self.fragments
        self.fragments += 1
        to, sums = np.asarray(to, dtype=np.int32), np.asarray(sums, dtype=np.int32)
        order = np.argsort(sums, kind="stable").astype(np.int32)
        order = order[np.searchsorted(sums[order], 0):]  # the units a sum takes
        procs = np.zeros(len(sum_keys), dtype=np.int32)
        procs[sums[order]] = to[order]
        self.add_group(round_no, Scatter(frag, shape, np.asarray(holders, dtype=np.int32),
                                         tuple(keys), to, None))
        self.add_group(round_no + 1, Scatter(frag, shape, procs, tuple(sum_keys), None,
                                             np.stack((order, sums[order]))))

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
        # Static group words per round (held at its end, sent, received) and
        # the processors whose stores the round's group ops change.
        self.group_words, self.group_procs = {}, {}
        for round_no, group_ops in plan.groups.items():
            words = tuple(np.zeros(procs, dtype=np.int64) for _ in range(3))
            touched = set()
            for op in group_ops:
                touched.update(_group_kind(op).words(op, *words))
            if round_no == trailing and any(figures.any() for figures in words):
                raise ValueError(f"a group op in the trailing local step (round {trailing}) "
                                 "must hold, send and receive nothing")
            self.group_words[round_no] = words
            self.group_procs[round_no] = sorted(touched)
            active.setdefault(round_no, set()).update(touched)
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
        for p in self.group_procs[round_no]:
            states[p] = self._merge(states[p], inboxes.pop(p, ()))
        for op in group_ops:
            _GROUP_DISPATCH[type(op)].step(self, op, round_no, states)
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
    # (program, op, round_no, states): run the op in its round, changing in
    # place the stores of the processors ``words`` returns (see the module doc).
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


def _gather_step(program, op, round_no, states):
    values = {}  # (holder, key) -> piece

    def read(holder, key, recipe):
        if (holder, key) not in values:
            store = states[holder]
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


def _rotate_step(program, op, round_no, states):
    stacks = program.stacks[op.frag]
    _slot(program.spec, op, stacks)
    if op.c_keys is not None:
        del program.stacks[op.frag]
        _give(program.spec, states, op.procs.tolist(), op.c_keys, stacks.c)


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


# -- Scatter -----------------------------------------------------------------


def _scatter_words(op, held, sent, received):
    if op.take is not None:  # a give
        unit, dest = op.take
        if not np.array_equal(dest[np.flatnonzero(np.diff(dest, prepend=-1))],
                              np.arange(len(op.keys))):
            raise ValueError("a give must sum units into each destination in turn")
        if len(np.unique(unit)) != len(unit):
            raise ValueError("a give must take each moved unit at most once")
        if len(set(zip(op.procs.tolist(), op.keys))) != len(op.keys):
            raise ValueError("a give must hand each (processor, key) one sum")
        return np.unique(op.procs).tolist()
    holder = np.repeat(op.procs, len(op.to) // max(len(op.procs), 1))
    if len(holder) != len(op.to):
        raise ValueError("a move must cut its tiles into equally many units")
    size, procs = math.prod(op.shape), len(held)
    kept, away = holder == op.to, (op.to >= 0) & (holder != op.to)
    held += np.bincount(holder[kept], minlength=procs) * size
    sent += np.bincount(holder[away], minlength=procs) * size
    received += np.bincount(op.to[away], minlength=procs) * size
    return np.unique(op.procs).tolist()


def _scatter_step(program, op, round_no, states):
    if op.take is None:  # a move
        size = len(op.to) // max(len(op.procs), 1) * math.prod(op.shape)  # words per tile
        values = np.empty((len(op.procs), size), dtype=np.int64)
        for i, (p, key) in enumerate(zip(op.procs.tolist(), op.keys)):
            tile = _pop(states[p], key, p, round_no)
            if tile.size != size:
                raise ValueError(f"scattered tile {key!r} has {tile.size} words, not {size}")
            values[i] = tile.reshape(-1)
        program.stacks[op.frag] = op.to, values.reshape(len(op.to), -1)
        return
    to, values = program.stacks.pop(op.frag)
    unit, dest = op.take
    stray = np.flatnonzero(to[unit] != op.procs[dest])
    if stray.size:
        i = dest[stray[0]]
        where = round_no if round_no <= program.total_rounds else None  # None: the trailing step
        raise MissingTile(int(op.procs[i]), where, op.keys[i])
    sums = _segment_add(program.spec, values[unit], np.flatnonzero(np.diff(dest, prepend=-1)))
    _give(program.spec, states, op.procs.tolist(), op.keys, sums.reshape(-1, *op.shape))


# -- Fetch -------------------------------------------------------------------


def _fetch_words(op, held, sent, received):
    procs = len(sent)
    sent += np.bincount(op.move[2], minlength=procs)
    received += np.bincount(op.move[0], minlength=procs)
    return np.unique(op.fold[0]).tolist()


def _fetch_step(program, op, round_no, states):
    where = round_no if round_no <= program.total_rounds else None  # None: the trailing step
    moved, values = program.stacks.pop(op.frag, (op.fold[:, :0], op.fold[0, :0]))
    local = op.fold[2] == op.fold[0]
    if not np.array_equal(op.fold[:, ~local], moved):
        raise ValueError("a fetch must fold the values the last round moved, in their order")
    if op.fold.size:
        _fetch_fold(program.spec, op.fold, local, values, states, where)
    if op.move.size:
        _, k, j = op.move.tolist()
        keys = [("b", kk, jj) for kk, jj in zip(k, j)]
        program.stacks[op.frag] = op.move, _words_at(states, j, keys, where)


def _fetch_fold(spec, terms, local, values, states, where):
    """c(r, j) (+)= a(r, k) (*) b(k, j) for every (r, k, j) column of ``terms``:
    b(k, j) is in r's store where ``local``, else the next of ``values``."""
    r, k, j = terms
    owners = r.tolist()
    a = _words_at(states, owners, [("a", p, q) for p, q in zip(owners, k.tolist())], where)
    b = np.empty_like(a)
    b[~local] = values
    if local.any():
        mine = r[local].tolist()
        b[local] = _words_at(states, mine, [("b", q, p) for p, q in zip(mine, k[local].tolist())],
                             where)
    order = np.lexsort((j, r))
    r, j = r[order], j[order]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (j[1:] != j[:-1])])
    sums = _segment_add(spec, spec.vmul(a, b)[order], starts)
    procs = r[starts].tolist()
    keys = [("c", p, q) for p, q in zip(procs, j[starts].tolist())]
    _give(spec, states, procs, keys, sums[:, None])


def _segment_add(spec, values, starts):
    """The carrier's sum of each run ``values[starts[i] : starts[i + 1]]`` (along
    axis 0), left to right."""
    sums = values[starts]
    lengths = np.diff(starts, append=len(values))
    for offset in range(1, int(lengths.max(initial=1))):
        longer = np.flatnonzero(lengths > offset)
        sums[longer] = spec.vadd(sums[longer], values[starts[longer] + offset])
    return sums


def _give(spec, states, procs, keys, values):
    """Hand ``values[i]`` to processor ``procs[i]``'s store under ``keys[i]``,
    for every i, accumulating like ``_acc``: a key already held becomes
    old (+) new, with one ``vadd`` over all of them.  The (procs[i], keys[i])
    must be distinct within one call.  ``values`` is written in place."""
    held = [i for i, (p, key) in enumerate(zip(procs, keys)) if key in states[p]]
    if held:
        old = np.stack([states[procs[i]][keys[i]] for i in held])
        values[held] = spec.vadd(old, values[held])
    for p, key, value in zip(procs, keys, values):
        states[p][key] = value


def _words_at(states, procs, keys, round_no):
    """The one-word tile ``keys[i]`` of processor ``procs[i]``'s store, for every i."""
    try:
        return np.concatenate([states[p][key] for p, key in zip(procs, keys)])
    except KeyError:
        p, key = next((p, key) for p, key in zip(procs, keys) if key not in states[p])
        raise MissingTile(p, round_no, key) from None


_GROUP_DISPATCH = {
    Gather: _GroupKind(_gather_words, _gather_step),
    Rotate: _GroupKind(_rotate_words, _rotate_step),
    Scatter: _GroupKind(_scatter_words, _scatter_step),
    Fetch: _GroupKind(_fetch_words, _fetch_step),
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
