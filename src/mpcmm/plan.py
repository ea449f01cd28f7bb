"""Dataflow plans: the group ops round schedules compile to.

A schedule builder precomputes the group ops of every round over
key -> tile stores, each op for many processors at once, plus each
processor's initial store and the emits (``Plan.emit``).  :class:`PlanProgram`
runs them inside the engine's hooks.  Keys are tuples such as
("A", i, q).

Group ops run one round of a fragment for all of its processors at once,
over stacks kept in a per-run object, so executing a plan twice gives the
same bytes.  ``PlanProgram`` dispatches them by type; each kind supplies
its static words and its step.

All kinds share one store contract.  Group ops change the stores in
place: each run starts from its own copies of the initial stores
(``init_state``), and no group op writes into an array it did not make.
A group op hands values to stores only through ``_give``, which
accumulates: a key already held becomes old (+) new.  The engine
re-measures the stores of the processors a round's group ops change (the
ones the kinds' words functions return).  Every kind reads stored tiles
through one reader, ``_tiles``; a key its processor's store lacks raises
:class:`MissingTile`, and so does an emitted key at finalize.

:class:`Gather` fills a fragment's A and B stacks, (processors, side,
side) each, from source tiles.  Each distinct tile it reads is listed
once, with its holder, its key, the shape it must have and whether it
moves out of the holder's store (then each of its words is read exactly
once) or is only read, such as a sparse row tile whose words the sparse
layers pick by offset.  The sources' words are concatenated in order,
each tile row-major, with zeros after them, and cut into units of
``width`` consecutive words.  ``words[0]`` and ``words[1]`` cut every
tile row of the A and B stacks into units too: ``words[s, r, y, x]`` is
the offset, in units, of unit x of row y of stack row r's tile, or -1
for zeros, so one fancy index fills both stacks.  ``charges`` names the
processor each unit counts against: the holder of the source it reads,
or any processor for zeros.  A unit counts as sent by that processor and
received by its row's, or as held when the two are one.

:class:`Rotate` is one slot of a skewed block rotation (see
``schedules.common.rotation_fragment``) over the stacks a gather filled
and the fragment's C stack.  A rotation turns all the grids of a schedule
or sparse layer, so each round holds one gather or one slot.  A slot:

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
where the per-entry tree-sum reference adds ((old (+) x1) (+) x2) ...;
semiring addition is associative, so the words are equal.

:class:`Fetch` is one round of the sparse value fetch (see
``schedules.sparse``) for every processor at once, over columnar terms
(r, k, j, a_at, b_at).  Processor r holds row r of A as one flat tile
("a", r) and column r of B as ("b", r): a(r, k) is word a_at of ("a", r)
and b(k, j) word b_at of ("b", j).  Like a tree-sum level, it sums
before it moves.

1. It folds first.  For each term of ``fold``, processor r adds
   a(r, k) (*) b(k, j) into its store cell ("c", r, j), a (1,) tile:
   one elementwise product, then one sum per cell with ``vadd``, left to
   right, given to the cell.  a(r, k) is read in r's store.
   b(k, j) is read in r's store too when j == r; the terms with j != r
   take the values the previous round moved, and must be its ``move``
   columns in their order.
2. Then it moves.  b(k, j) of each term of ``move`` is read in the store
   of processor j, which keeps its tile, and is in flight to r until the
   next round's fold.  It counts as sent by j and received by r, so r's
   next round starts with it in its footprint.

A read takes each touched tile once and picks its words by offset; an
offset outside its tile raises ``ValueError``.  The processors it folds
into are the ones it names as changed; a sender's store does not change.

In a round, group ops run in the order they were added.  Round
``num_rounds + 1`` is the trailing local step: the engine runs its group
ops after the last barrier, then ``finalize`` reads every emitted tile
as stored, in processor order, and ``assemble_output`` places each at
its emit's (row, col), a flat tile as one row; no two emits cover one
cell.  The step is local, so nothing in it may send, and no group op may be
placed later.  A group op's words (held, sent, received) come from its
static shape, not from the stacks, and the engine charges them (see
``mpcmm.engine``).  Its held words are those it keeps out of the stores
at the end of the round, not those in flight.

``Plan.ops`` is where a per-processor op list would go, per (round,
processor).  No shipped builder places one and ``PlanProgram`` rejects a
plan that has one; the per-processor references in ``tests/`` run them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
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


class Gather(NamedTuple):
    """Fill a fragment's A and B stacks with source words (see module doc)."""

    frag: int  # a fragment's gathers and slots share its tile stacks
    procs: np.ndarray  # processor of each stack row: the consumer of its tiles
    side: int  # every A and B tile is side x side
    holders: np.ndarray  # (sources,) the processor that holds each source tile
    keys: tuple  # the store key of each source tile
    shapes: tuple  # the shape each source tile must have
    moves: np.ndarray  # (sources,) bools: the tile moves out of its holder's store
    width: int  # the words in one unit
    words: np.ndarray  # (2, rows, side, side // width) int32: unit offsets; -1 zeros
    charges: np.ndarray  # like ``words``: the processor each unit counts against


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
    fold: np.ndarray  # (5, terms) r, k, j, a_at, b_at: c(r, j) (+)= a(r, k) (*) b(k, j) at r
    move: np.ndarray  # (5, values), rows as in ``fold``: b(k, j) moves from j to r


@dataclass
class Plan:
    """A schedule's group ops per round, its processors' initial stores and emits."""

    num_procs: int
    num_rounds: int
    min_memory: int = 1
    init: dict = field(default_factory=dict)  # proc -> {key: array}
    # (round, proc) -> [per-processor op]: empty on every shipped plan, and
    # ``PlanProgram`` rejects any other (see the module doc)
    ops: dict = field(default_factory=dict)
    # round -> [Gather | Rotate | Scatter | Fetch]; see the module doc
    groups: dict = field(default_factory=dict)
    fragments: int = 0  # group-op fragments numbered so far
    emits: tuple = field(default_factory=lambda: ([], [], [], []))  # proc, key, row, col columns

    def add_group(self, round_no, op):
        self.groups.setdefault(round_no, []).append(op)

    def fragment(self) -> int:
        """A new fragment number: the group ops of one fragment share its stacks."""
        self.fragments += 1
        return self.fragments - 1

    def scatter(self, round_no, shape, holders, keys, to, sums, sum_keys):
        """Add a :class:`Scatter`: in ``round_no`` tile ``keys[i]`` leaves
        ``holders[i]`` and unit u goes to ``to[u]`` (-1 drops it); in the
        next round unit u adds into destination ``sums[u]`` (-1: none),
        handed in at its receiver under ``sum_keys[sums[u]]``."""
        frag = self.fragment()
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
        """Empty, for ``perfbench/probes.py``: no plan has per-processor ops at finalize."""
        return {}

    def emit(self, procs, keys, rows, cols):
        """Place tile ``keys[i]`` of processor ``procs[i]``'s store, as stored,
        at (rows[i], cols[i]) of the output after the trailing step, for every i."""
        procs, rows, cols = (np.asarray(x, dtype=np.int64).ravel().tolist()
                             for x in (procs, rows, cols))
        keys = list(keys)
        if not len(procs) == len(keys) == len(rows) == len(cols):
            raise ValueError("an emit needs one processor, key, row and col per block")
        for column, values in zip(self.emits, (procs, keys, rows, cols)):
            column.extend(values)

    def set_init(self, proc, key, array):
        tile = np.asarray(array, dtype=np.int64).view()
        tile.setflags(write=False)  # a read-only view: no run writes an initial tile
        self.init.setdefault(proc, {})[key] = tile


class PlanProgram(Program):
    """Runs a plan's group ops in the engine's hooks (see the module doc)."""

    def __init__(self, plan: Plan, spec: SemiringSpec):
        self.plan = plan
        self.spec = spec
        self.num_procs = plan.num_procs
        self.total_rounds = plan.num_rounds
        self.min_memory = plan.min_memory
        self._check_ops(plan)
        procs = plan.num_procs
        trailing = plan.num_rounds + 1  # the local step after the last barrier
        past = max(plan.groups, default=0)
        if past > trailing:
            raise ValueError(f"a group op is placed in round {past}, past the trailing "
                             f"local step (round {trailing})")

        # Per round: the group ops' static words (held at its end, sent,
        # received) and the processors whose stores they change.
        self.group_words = {}
        for round_no, group_ops in plan.groups.items():
            words = tuple(np.zeros(procs, dtype=np.int64) for _ in range(3))
            touched = set()
            for op in group_ops:
                touched.update(_group_kind(op).words(op, *words))
            if round_no == trailing and any(figures.any() for figures in words):
                raise ValueError(f"a group op in the trailing local step (round {trailing}) "
                                 "must hold, send and receive nothing")
            self.group_words[round_no] = (*words, sorted(touched))
        # the emits in processor order, each processor's as added
        order = np.argsort(np.asarray(plan.emits[0], dtype=np.int64), kind="stable").tolist()
        self.emits = tuple([column[i] for i in order] for column in plan.emits)
        self.start()

    def _check_ops(self, plan):
        """Reject per-processor ops: this interpreter would drop them."""
        if plan.ops:
            raise ValueError("a plan with per-processor ops cannot run: PlanProgram "
                             "runs group ops only")

    def start(self):
        self.stacks = {}  # fragment -> its stacks in the current run

    def init_state(self, p):
        return dict(self.plan.init.get(p, {}))

    def group_step(self, round_no, states):
        group_ops = self.plan.groups.get(round_no)
        if group_ops is None:
            return None
        for op in group_ops:
            _GROUP_DISPATCH[type(op)].step(self, op, round_no, states)
        return self.group_words[round_no]

    def handler(self, round_no, p, state, inbox):
        """For ``perfbench/probes.py``, which patches it until it times group ops."""
        raise NotImplementedError("the engine hands no processor to a handler")

    def finalize(self, states):
        procs, keys, rows, cols = self.emits
        return procs, rows, cols, _tiles(self, states, procs, keys, repeat(False),
                                         self.total_rounds + 1)


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


def _tiles(program, states, procs, keys, moves, round_no):
    """Tile ``keys[i]`` of processor ``procs[i]``'s store, for every i: moved
    out of the store where ``moves[i]``, else only read.  The first key, in
    order, that its store lacks raises :class:`MissingTile`."""
    tiles = []
    try:
        for p, key, move in zip(procs, keys, moves):
            tiles.append(states[p].pop(key) if move else states[p][key])
    except KeyError:
        raise _missing(program, p, round_no, key) from None
    return tiles


def _missing(program, p, round_no, key):
    """The :class:`MissingTile` for ``key`` at ``p``; the trailing step reports round None."""
    return MissingTile(p, round_no if round_no <= program.total_rounds else None, key)


# -- Gather and Rotate -------------------------------------------------------

# A slot multiplies at most this many words of A (and of B) per kernel call:
# the one bound on a stacked product's temporaries (the kernels take a stack whole).
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
    procs, rows, side, width = len(held), len(op.procs), op.side, op.width
    size = {shape: math.prod(shape) for shape in set(op.shapes)}
    if not len(op.holders) == len(op.keys) == len(op.moves) == len(op.shapes):
        raise ValueError("a gather must give every source a holder, a key, a shape and a move")
    if side % width or any(n % width for n in size.values()):
        raise ValueError(f"gathered units of {width} words must tile every {side}-word tile "
                         "row and every source")
    shape = (2, rows, side, side // width)
    if op.words.shape != shape or op.charges.shape != shape:
        raise ValueError(f"a gather's words and charges must be {shape}")
    units = [size[shape] // width for shape in op.shapes]
    total = sum(units)
    if op.words.size and (op.words.min() < -1 or op.words.max() >= total):
        bad = op.words[(op.words < -1) | (op.words >= total)][0]
        raise ValueError(f"gathered unit offset {bad} lies past the {total} units of "
                         f"{width} words of its sources")
    charged = np.bincount(op.charges.ravel(), minlength=procs) * width
    if len(charged) > procs:
        raise ValueError(f"a gathered unit is charged to no processor of {procs}")
    source = np.repeat(np.arange(len(units) + 1), units + [1])  # the zeros at unit -1
    wrong = np.flatnonzero((np.append(op.holders, -1)[source][op.words] != op.charges)
                           & (op.words >= 0))
    if wrong.size:
        i = source[op.words.flat[wrong[0]]]
        raise ValueError(f"a unit of gathered source {op.keys[i]!r} at processor "
                         f"{op.holders[i]} is charged to processor {op.charges.flat[wrong[0]]}")
    if op.moves.any():  # a tile moved out of its holder's store is read whole, once
        count = np.bincount(op.words.ravel() + 1, minlength=total + 1)[1:]
        lost = np.flatnonzero((count != 1) & op.moves[source[:-1]])
        if lost.size:
            i = source[lost[0]]
            raise ValueError(f"gathered source {op.keys[i]!r} moves out of processor "
                             f"{op.holders[i]}, but a word of it is read "
                             f"{count[lost[0]]} times")
    kept = (op.charges == op.procs[:, None, None]).sum(axis=(0, 2, 3)) * width  # held, per row
    own = np.bincount(op.procs, weights=kept, minlength=procs).astype(np.int64)
    held += own
    sent += charged - own
    received += np.bincount(op.procs, weights=2 * side * side - kept,
                            minlength=procs).astype(np.int64)
    # Only a source moved out changes its holder's store.
    return np.flatnonzero(np.bincount(op.holders[op.moves], minlength=procs)).tolist()


def _gather_step(program, op, round_no, states):
    tiles = _tiles(program, states, op.holders.tolist(), op.keys, op.moves.tolist(), round_no)
    if any(tile.shape != shape for tile, shape in zip(tiles, op.shapes)):
        key, tile, shape = next((key, tile, shape) for key, tile, shape
                                in zip(op.keys, tiles, op.shapes) if tile.shape != shape)
        raise ValueError(f"gathered source {key!r} has shape {tile.shape}, not {shape}")
    tiles.append(np.full(op.width, program.spec.zero, dtype=np.int64))  # unit -1
    units = np.concatenate(tiles, axis=None).reshape(-1, op.width)
    a, b = units[op.words].reshape(2, -1, op.side, op.side)
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
    # A few rows at a time, so that temporaries stay small and reuse heap
    # memory: larger ones come from fresh, faulting pages.
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
        if unit.size and np.bincount(unit).max() > 1:
            raise ValueError("a give must take each moved unit at most once")
        if len(set(zip(op.procs.tolist(), op.keys))) != len(op.keys):
            raise ValueError("a give must hand each (processor, key) one sum")
        return np.flatnonzero(np.bincount(op.procs, minlength=len(held))).tolist()
    holder = np.repeat(op.procs, len(op.to) // max(len(op.procs), 1))
    if len(holder) != len(op.to):
        raise ValueError("a move must cut its tiles into equally many units")
    size, procs = math.prod(op.shape), len(held)
    kept, away = holder == op.to, (op.to >= 0) & (holder != op.to)
    held += np.bincount(holder[kept], minlength=procs) * size
    sent += np.bincount(holder[away], minlength=procs) * size
    received += np.bincount(op.to[away], minlength=procs) * size
    return np.flatnonzero(np.bincount(op.procs, minlength=procs)).tolist()


def _scatter_step(program, op, round_no, states):
    if op.take is None:  # a move
        size = len(op.to) // max(len(op.procs), 1) * math.prod(op.shape)  # words per tile
        tiles = _tiles(program, states, op.procs.tolist(), op.keys, repeat(True), round_no)
        for key, tile in zip(op.keys, tiles):
            if tile.size != size:
                raise ValueError(f"scattered tile {key!r} has {tile.size} words, not {size}")
        program.stacks[op.frag] = op.to, np.concatenate(tiles, axis=None).reshape(len(op.to), -1)
        return
    to, values = program.stacks.pop(op.frag)
    unit, dest = op.take
    stray = np.flatnonzero(to[unit] != op.procs[dest])
    if stray.size:
        i = dest[stray[0]]
        raise _missing(program, int(op.procs[i]), round_no, op.keys[i])
    sums = _segment_add(program.spec, values[unit], np.flatnonzero(np.diff(dest, prepend=-1)))
    _give(program.spec, states, op.procs.tolist(), op.keys, sums.reshape(-1, *op.shape))


# -- Fetch -------------------------------------------------------------------


def _fetch_words(op, held, sent, received):
    procs = len(sent)
    sent += np.bincount(op.move[2], minlength=procs)
    received += np.bincount(op.move[0], minlength=procs)
    return np.unique(op.fold[0]).tolist()


def _fetch_step(program, op, round_no, states):
    def read(name, procs, at):  # words of row tiles, left in their stores
        return _words_at(program, states, name, procs, at, round_no)

    moved, values = program.stacks.pop(op.frag, (op.fold[:, :0], op.fold[0, :0]))
    local = op.fold[2] == op.fold[0]
    if not np.array_equal(op.fold[:, ~local], moved):
        raise ValueError("a fetch must fold the values the last round moved, in their order")
    if op.fold.size:
        _fetch_fold(program.spec, op.fold, local, values, states, read)
    if op.move.size:
        program.stacks[op.frag] = op.move, read("b", op.move[2], op.move[4])


def _words_at(program, states, name, procs, at, round_no):
    """Word ``at[i]`` of tile (name, procs[i]) in processor ``procs[i]``'s
    store, for every i, each touched tile read once and left there."""
    counts = np.bincount(procs, minlength=len(states))
    touched = np.flatnonzero(counts).tolist()
    keys = [(name, p) for p in touched]
    tiles = _tiles(program, states, touched, keys, repeat(False), round_no)
    sizes = np.array([tile.size for tile in tiles], dtype=np.int64)
    which = (np.cumsum(counts > 0) - 1)[procs]  # each term's rank among the touched tiles
    outside = np.flatnonzero((at < 0) | (at >= sizes[which]))
    if outside.size:
        i = outside[0]
        raise ValueError(f"offset {at[i]} lies outside the {sizes[which[i]]} words of tile "
                         f"{keys[which[i]]!r} at processor {procs[i]} in round {round_no}")
    return np.concatenate(tiles)[(np.cumsum(sizes) - sizes)[which] + at]


def _fetch_fold(spec, terms, local, values, states, read):
    """c(r, j) (+)= a(r, k) (*) b(k, j) for every (r, k, j, a_at, b_at)
    column of ``terms``: b(k, j) is in r's store where ``local``, else the
    next of ``values``."""
    r, _, j, a_at, b_at = terms
    a = read("a", r, a_at)
    b = np.empty_like(a)
    b[~local] = values
    if local.any():
        b[local] = read("b", r[local], b_at[local])
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
    for every i, accumulating: a key already held becomes old (+) new, with
    one ``vadd`` over all of them.  The (procs[i], keys[i]) must be distinct
    within one call.  ``values`` is written in place."""
    held = [i for i, (p, key) in enumerate(zip(procs, keys)) if key in states[p]]
    if held:
        old = np.stack([states[procs[i]][keys[i]] for i in held])
        values[held] = spec.vadd(old, values[held])
    for p, key, value in zip(procs, keys, values):
        states[p][key] = value


_GROUP_DISPATCH = {
    Gather: _GroupKind(_gather_words, _gather_step),
    Rotate: _GroupKind(_rotate_words, _rotate_step),
    Scatter: _GroupKind(_scatter_words, _scatter_step),
    Fetch: _GroupKind(_fetch_words, _fetch_step),
}


def assemble_output(outputs, rows, cols, spec: SemiringSpec) -> np.ndarray:
    """Place each block of a run's ``outputs`` columns (see
    ``Program.finalize``), as stored, in a rows x cols array of zeros.

    A flat block is one row.  No plan emits a cell twice, so each block is
    written once; cells no block covers keep the carrier's zero."""
    data = spec.zeros(rows, cols)
    for r0, c0, block in zip(*outputs[1:]):
        height, width = block.shape if block.ndim == 2 else (1, len(block))
        data[r0 : r0 + height, c0 : c0 + width] = block
    return data
