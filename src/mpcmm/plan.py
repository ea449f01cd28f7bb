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

All kinds share one store contract.  ``PlanProgram`` keeps the stores,
``states``: each run starts from its own copies of the initial stores
(``start``), and no group op writes into an array it did not make.
Group ops change the stores in place, in exactly three places: the one
reader, ``_tiles``, which pops a tile that moves out of its store;
``_give``, which hands values to stores and accumulates: a key already
held becomes old (+) new; and ``_give_cells``, the same for output
cells.  All three keep ``state_words``, each processor's store words, up
to date, so the engine measures no store.  A key a processor's store
lacks raises :class:`MissingTile`, and so does an emitted key at
finalize.  The fourth kind of store never changes: a family of row tiles
(``Plan.set_family``), such as the sparse A rows and B columns, where p's
tile (name, p) is ``data[ptr[p]:ptr[p + 1]]`` of one read-only array all
runs share.  Its words count from the ``ptr`` differences at ``start``;
``_tiles`` and ``Fetch`` read it, and an empty row is a tile p lacks.

Output cells are a plan's single words of output (``Plan.emit_cells``),
such as a sparse processor's masked output row.  Processor p's cells are
slots 0, 1, ... of its row in the run's ``cell_values``, beside its table
of given cells; a cell counts one word from its first give.

:class:`Gather` fills a fragment's A and B stacks, (processors, side,
side) each, from source tiles.  Each distinct tile it reads is listed
once, with its holder, its key, the shape it must have and whether it
moves out of the holder's store (then each of its words is read exactly
once) or is only read, such as a family row whose words the sparse
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
   unit, destination; destinations ascending) lists for it with ``vadd``,
   and hands the sum to processor ``procs[i]`` under ``keys[i]``, or, in
   a give with ``slots``, adds it into output cell ``slots[i]`` of it.
   Its (processor, key or slot) pairs must be distinct and it takes each
   unit at most once.  A unit that was not moved to its destination's
   processor raises :class:`MissingTile` there.

A destination that holds its key already gets old (+) (x1 (+) x2 ...),
where the per-entry tree-sum reference adds ((old (+) x1) (+) x2) ...,
and a sum of many units is taken in halving passes; semiring addition
is associative and commutative, so the words are equal.

:class:`Fetch` is one round of the sparse value fetch (see
``schedules.sparse``) for every processor at once, over columnar terms
(r, k, j, a_at, b_at, slot), each held once.  Processor r holds row r of
A as its "a" family row ("a", r) and column r of B as ("b", r): a(r, k)
is word a_at of ("a", r) and b(k, j) word b_at of ("b", j).  A term adds
a(r, k) (*) b(k, j) into r's output cell (r, j), slot ``slot`` of r.
Like a tree-sum level, a fetch sums before it moves.

1. It folds first: the terms the fragment's previous fetch moved, in
   their order, with the values in flight, then its own terms with
   j == r, with b(k, j) read at r.  a(r, k) is read at r.  One
   elementwise product, then one sum per cell with ``vadd``.
2. Then it moves.  b(k, j) of each of its terms with j != r is read at
   processor j, and is in flight to r until the next fetch of the
   fragment folds it, in the next round.  It counts as sent by j and
   received by r, so r's next round starts with it in its footprint.

Each read of a family is one fancy index into its data; an offset
outside its tile raises ``ValueError``.

In a round, group ops run in the order they were added.  Round
``num_rounds + 1`` is the trailing local step: the engine runs its group
ops after the last barrier, then ``finalize`` reads every emitted tile
as stored, in processor order, then each processor's row of output
cells, and ``assemble_output`` places each at its emit's (row, col), a
flat tile as one row, and a row of cells at its row and cell columns;
no two emits cover one cell.  An output cell never given raises
:class:`MissingTile` for the first such cell, before any tile is read.
The step is local, so nothing in it may send, and no group op may be
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
    keys: tuple  # move: the key of each tile; give: the key of each destination, or ()
    to: np.ndarray | None  # move: the receiver of each unit, -1 drops it; None in a give
    take: np.ndarray | None  # give: (2, units) rows unit, destination; None in a move
    slots: np.ndarray | None = None  # a give into output cells: each destination's slot


class Fetch(NamedTuple):
    """One round of the sparse value fetch for every processor (see module doc)."""

    frag: int  # the rounds of one fetch share the values in flight
    # (6, terms) r, k, j, a_at, b_at, slot: c(r, j) (+)= a(r, k) (*) b(k, j) at r,
    # into output cell ``slot`` of r, the slot of (r, j) in r's row tile ("c", r);
    # b(k, j) folds now where j == r, else moves from j to r and folds next round
    terms: np.ndarray


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
    # proc, row, col int64 columns of the output cells (``emit_cells``)
    cells: tuple = field(default_factory=lambda: (np.zeros(0, dtype=np.int64),) * 3)
    families: dict = field(default_factory=dict)  # name -> (ptr, data): a family of row tiles

    def add_group(self, round_no, op):
        self.groups.setdefault(round_no, []).append(op)

    def fragment(self) -> int:
        """A new fragment number: the group ops of one fragment share its stacks."""
        self.fragments += 1
        return self.fragments - 1

    def scatter(self, round_no, shape, holders, keys, to, sums, sum_keys=(), slots=None):
        """Add a :class:`Scatter`: in ``round_no`` tile ``keys[i]`` leaves
        ``holders[i]`` and unit u goes to ``to[u]`` (-1 drops it); in the
        next round unit u adds into destination ``sums[u]`` (-1: none),
        handed in at its receiver under ``sum_keys[sums[u]]``, or, given
        ``slots``, into its receiver's output cell ``slots[sums[u]]``."""
        frag = self.fragment()
        to, sums = np.asarray(to, dtype=np.int32), np.asarray(sums, dtype=np.int32)
        order = np.argsort(sums, kind="stable").astype(np.int32)
        order = order[np.searchsorted(sums[order], 0):]  # the units a sum takes
        if slots is not None:
            slots = np.asarray(slots, dtype=np.int64)
        procs = np.zeros(len(sum_keys) if slots is None else len(slots), dtype=np.int32)
        procs[sums[order]] = to[order]
        self.add_group(round_no, Scatter(frag, shape, np.asarray(holders, dtype=np.int32),
                                         tuple(keys), to, None))
        self.add_group(round_no + 1, Scatter(frag, shape, procs, tuple(sum_keys), None,
                                             np.stack((order, sums[order])), slots))

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

    def emit_cells(self, procs, rows, cols):
        """Place output cell i, held by processor ``procs[i]``, at (rows[i],
        cols[i]) of the output after the trailing step, for every i.  A
        processor's cells are slots 0, 1, ... of its row, in the order
        listed, and lie in one output row; ``Fetch`` and a ``Scatter`` give
        with slots hand values into them by slot."""
        new = [np.asarray(x, dtype=np.int64).ravel() for x in (procs, rows, cols)]
        if not len(new[0]) == len(new[1]) == len(new[2]):
            raise ValueError("an output cell needs one processor, row and col")
        self.cells = tuple(np.concatenate((old, add)) for old, add in zip(self.cells, new))

    def set_family(self, name, ptr, data):
        """Give each processor p the read-only family row (name, p), words
        ``data[ptr[p]:ptr[p + 1]]`` (see the module doc)."""
        ptr, data = (np.asarray(x, dtype=np.int64).view() for x in (ptr, data))
        steps = np.diff(ptr, prepend=0, append=len(data))  # 0 first and last, none below 0
        if len(ptr) != self.num_procs + 1 or steps[0] or steps[-1] or steps.min() < 0:
            raise ValueError(f"a family's ptr must rise from 0 to its {len(data)} words")
        ptr.setflags(write=False), data.setflags(write=False)  # no run writes a family
        self.families[name] = ptr, data

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

        # Per round: the group ops' static words (held at its end, sent, received).
        self.group_words = {}
        for round_no, group_ops in plan.groups.items():
            words = tuple(np.zeros(procs, dtype=np.int64) for _ in range(3))
            for op in group_ops:
                _group_kind(op).words(op, *words)
            if round_no == trailing and any(figures.any() for figures in words):
                raise ValueError(f"a group op in the trailing local step (round {trailing}) "
                                 "must hold, send and receive nothing")
            self.group_words[round_no] = words
        self._cell_rows(plan)
        # the emitted tiles in processor order, each processor's as added
        order = np.argsort(np.asarray(plan.emits[0], dtype=np.int64), kind="stable").tolist()
        self.emits = tuple([column[i] for i in order] for column in plan.emits)

    def _cell_rows(self, plan):
        """Lay out the plan's output cells, processor by processor in slot
        order, with one emit per processor that has cells, ``cell_emits``:
        its row, its cells' columns by slot and their span of the layout."""
        procs, rows, cols = plan.cells
        if procs.size and (procs.min() < 0 or procs.max() >= self.num_procs):
            raise ValueError(f"an output cell is held by no processor of {self.num_procs}")
        order = np.argsort(procs, kind="stable")
        widths = np.bincount(procs, minlength=self.num_procs)
        self.cell_start = np.concatenate(([0], np.cumsum(widths)))  # p's cells: start[p]:start[p + 1]
        self.cell_owner, rows, self.cell_cols = procs[order], rows[order], cols[order]
        owners = np.flatnonzero(widths)
        first = self.cell_start[owners]
        if (rows != np.repeat(rows[first], widths[owners])).any():
            raise ValueError("a processor's output cells must lie in one output row")
        spans = list(zip(first.tolist(), self.cell_start[owners + 1].tolist()))
        self.cell_emits = (owners.tolist(), rows[first].tolist(),
                           [self.cell_cols[begin:end] for begin, end in spans], spans)

    def _check_ops(self, plan):
        """Reject per-processor ops: this interpreter would drop them."""
        if plan.ops:
            raise ValueError("a plan with per-processor ops cannot run: PlanProgram "
                             "runs group ops only")

    def start(self):
        self.stacks = {}  # fragment -> its stacks in the current run
        self.given = np.zeros(len(self.cell_owner), dtype=bool)  # the output cells given so far
        self.cell_values = np.empty(len(self.cell_owner), dtype=np.int64)  # where given
        self.states = [dict(self.plan.init.get(p, {})) for p in range(self.num_procs)]
        self.state_words = np.array([sum(tile.size for tile in store.values())
                                     for store in self.states], dtype=np.int64)
        for ptr, _ in self.plan.families.values():
            self.state_words += np.diff(ptr)
        return self.state_words

    def group_step(self, round_no):
        group_ops = self.plan.groups.get(round_no)
        if group_ops is None:
            return None
        for op in group_ops:
            _GROUP_DISPATCH[type(op)].step(self, op, round_no)
        return (*self.group_words[round_no], self.state_words)

    def handler(self, round_no, p, state, inbox):
        """For ``perfbench/probes.py``, which patches it until it times group ops."""
        raise NotImplementedError("the engine hands no processor to a handler")

    def finalize(self):
        missing = np.flatnonzero(~self.given)
        if missing.size:
            p = int(self.cell_owner[missing[0]])
            raise MissingTile(p, None, ("c", p, int(self.cell_cols[missing[0]])))
        procs, keys, rows, cols = self.emits
        owners, cell_rows, cell_cols, spans = self.cell_emits
        return (procs + owners, rows + cell_rows, cols + cell_cols,
                _tiles(self, procs, keys, repeat(False), self.total_rounds + 1)
                + [self.cell_values[begin:end] for begin, end in spans])


class _GroupKind(NamedTuple):
    """How ``PlanProgram`` runs one kind of group op."""

    # (op, held, sent, received): add the op's static words to the three
    # arrays over processors.
    words: Callable
    # (program, op, round_no): run the op in its round, changing the
    # program's stores in place (see the module doc).
    step: Callable


def _group_kind(op):
    try:
        return _GROUP_DISPATCH[type(op)]
    except KeyError:
        raise TypeError(f"unknown group op {op!r}") from None


def _tiles(program, procs, keys, moves, round_no):
    """Tile ``keys[i]`` of processor ``procs[i]``'s store, for every i: moved
    out of the store where ``moves[i]``, which uncounts its words, else only
    read, a family row as a view of its data.  The first key, in order, that
    its processor lacks raises :class:`MissingTile`."""
    states, families, tiles, popped, words = program.states, program.plan.families, [], [], []
    try:
        for p, key, move in zip(procs, keys, moves):
            if move:
                tiles.append(states[p].pop(key))
                popped.append(p)
                words.append(tiles[-1].size)
            elif families and key[0] in families:
                ptr, data = families[key[0]]
                if key[1:] != (p,) or ptr[p] == ptr[p + 1]:
                    raise KeyError(key)
                tiles.append(data[ptr[p] : ptr[p + 1]])
            else:
                tiles.append(states[p][key])
    except KeyError:
        raise _missing(program, p, round_no, key) from None
    if popped:
        np.subtract.at(program.state_words, popped, words)
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


def _gather_step(program, op, round_no):
    tiles = _tiles(program, op.holders.tolist(), op.keys, op.moves.tolist(), round_no)
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


def _rotate_step(program, op, round_no):
    stacks = program.stacks[op.frag]
    _slot(program.spec, op, stacks)
    if op.c_keys is not None:
        del program.stacks[op.frag]
        _give(program, op.procs.tolist(), op.c_keys, stacks.c)


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
                              np.arange(len(op.procs))):
            raise ValueError("a give must sum units into each destination in turn")
        if unit.size and np.bincount(unit).max() > 1:
            raise ValueError("a give must take each moved unit at most once")
        if op.slots is None:
            if len(set(zip(op.procs.tolist(), op.keys))) != len(op.keys):
                raise ValueError("a give must hand each (processor, key) one sum")
            return
        if op.shape != (1,) or len(op.slots) != len(op.procs):
            raise ValueError("a give into output cells hands one word to each destination")
        order = np.lexsort((op.slots, op.procs))
        if ((np.diff(op.procs[order]) == 0) & (np.diff(op.slots[order]) == 0)).any():
            raise ValueError("a give into output cells must hand each (processor, slot) "
                             "one word")
        return
    holder = np.repeat(op.procs, len(op.to) // max(len(op.procs), 1))
    if len(holder) != len(op.to):
        raise ValueError("a move must cut its tiles into equally many units")
    size, procs = math.prod(op.shape), len(held)
    kept, away = holder == op.to, (op.to >= 0) & (holder != op.to)
    held += np.bincount(holder[kept], minlength=procs) * size
    sent += np.bincount(holder[away], minlength=procs) * size
    received += np.bincount(op.to[away], minlength=procs) * size


def _scatter_step(program, op, round_no):
    if op.take is None:  # a move
        size = len(op.to) // max(len(op.procs), 1) * math.prod(op.shape)  # words per tile
        tiles = _tiles(program, op.procs.tolist(), op.keys, repeat(True), round_no)
        for key, tile in zip(op.keys, tiles):
            if tile.size != size:
                raise ValueError(f"scattered tile {key!r} has {tile.size} words, not {size}")
        program.stacks[op.frag] = op.to, np.concatenate(tiles, axis=None).reshape(len(op.to), -1)
        return
    to, values = program.stacks.pop(op.frag)
    unit, dest = op.take
    cells = None if op.slots is None else _cell_index(program, op.procs, op.slots)
    stray = np.flatnonzero(to[unit] != op.procs[dest])
    if stray.size:
        i = dest[stray[0]]
        p = int(op.procs[i])
        key = op.keys[i] if cells is None else ("c", p, int(program.cell_cols[cells[i]]))
        raise _missing(program, p, round_no, key)
    sums = _segment_add(program.spec, values[unit], np.flatnonzero(np.diff(dest, prepend=-1)))
    if cells is None:
        _give(program, op.procs.tolist(), op.keys, sums.reshape(-1, *op.shape))
    else:
        order = np.argsort(cells)
        _give_cells(program, cells[order], sums.reshape(-1)[order])


# -- Fetch -------------------------------------------------------------------


def _fetch_words(op, held, sent, received):
    procs = len(sent)
    if op.terms.ndim != 2 or len(op.terms) != 6:
        raise ValueError("a fetch's terms must be a (6, terms) array: r, k, j, a_at, b_at, slot")
    remote = op.terms[:, op.terms[2] != op.terms[0]]
    sent += np.bincount(remote[2], minlength=procs)
    received += np.bincount(remote[0], minlength=procs)


def _fetch_step(program, op, round_no):
    read = lambda name, procs, at: _family_words(program, name, procs, at, round_no)
    local = op.terms[2] == op.terms[0]
    resident = local.any()
    fold, values = program.stacks.pop(op.frag, (op.terms[:, :0], op.terms[0, :0]))
    if resident:
        fold = np.concatenate([fold, op.terms[:, local]], axis=1)
    if fold.size:
        r, _, _, a_at, b_at, slot = fold
        a = read("a", r, a_at)
        if resident:
            values = np.concatenate([values, read("b", r[len(values):], b_at[len(values):])])
        _fetch_fold(program, r, slot, program.spec.vmul(a, values))
    if not local.all():
        move = op.terms[:, ~local] if resident else op.terms
        program.stacks[op.frag] = move, read("b", move[2], move[4])


def _family_words(program, name, procs, at, round_no):
    """Word ``at[i]`` of family row (name, procs[i]), for every i, with one
    fancy index.  Of the rows read, the lowest processor's empty one raises
    :class:`MissingTile`, and the first offset outside its row ``ValueError``."""
    ptr, data = program.plan.families.get(name, (np.zeros(program.num_procs + 1, int), None))
    start = ptr[procs]
    at = start + at
    end = ptr[1:][procs]
    outside = (at < start) | (at >= end)
    if outside.any():
        size = end - start
        empty = procs[size == 0]  # every offset lies outside an empty row
        if empty.size:
            p = int(empty.min())
            raise _missing(program, p, round_no, (name, p))
        i = np.flatnonzero(outside)[0]
        raise ValueError(f"offset {at[i] - start[i]} lies outside the {size[i]} words of tile "
                         f"{(name, int(procs[i]))!r} at processor {procs[i]} in round {round_no}")
    return data[at]


def _fetch_fold(program, r, slot, products):
    """Output cell ``slot[i]`` of r[i] (+)= products[i] for every i, summed
    per cell first."""
    cells = _cell_index(program, r, slot)
    if (cells[1:] < cells[:-1]).any():  # moved and resident terms: two sorted runs
        order = np.argsort(cells, kind="stable")
        cells, products = cells[order], products[order]
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    _give_cells(program, cells[starts], _segment_add(program.spec, products, starts))


def _segment_add(spec, values, starts):
    """The carrier's sum of each run ``values[starts[i] : starts[i + 1]]`` (along
    axis 0), written into ``values``: each pass adds the back half of every
    run into its front half, so a run of m values takes ceil(log2 m) passes."""
    lengths = np.diff(starts, append=len(values))
    live = np.flatnonzero(lengths > 1)
    while live.size:
        half = lengths[live] // 2
        lengths[live] -= half
        first = np.cumsum(half) - half
        front = np.repeat(starts[live] - first, half) + np.arange(first[-1] + half[-1])
        values[front] = spec.vadd(values[front], values[front + np.repeat(lengths[live], half)])
        live = live[lengths[live] > 1]
    return values[starts]


def _give(program, procs, keys, values):
    """Hand ``values[i]`` to processor ``procs[i]``'s store under ``keys[i]``,
    for every i, accumulating: a key already held becomes old (+) new, with
    one ``vadd`` over all of them, and a fresh key counts its words.  The
    (procs[i], keys[i]) must be distinct within one call.  ``values`` is
    written in place."""
    states, held, fresh = program.states, [], []
    for i, (p, key) in enumerate(zip(procs, keys)):
        if key in states[p]:
            held.append(i)
        else:
            fresh.append(p)
    if held:
        old = np.stack([states[procs[i]][keys[i]] for i in held])
        if old.shape[1:] != values.shape[1:]:
            raise ValueError(f"a give hands a {values.shape[1:]} tile to a key that holds "
                             f"a {old.shape[1:]} one")
        values[held] = program.spec.vadd(old, values[held])
    if fresh:
        np.add.at(program.state_words, fresh, values[0].size)
    for p, key, value in zip(procs, keys, values):
        states[p][key] = value


def _cell_index(program, procs, slots):
    """The index in the run's table of given cells of output cell
    ``slots[i]`` of processor ``procs[i]``, for every i; a slot that
    processor does not have raises ``ValueError``."""
    start = program.cell_start[procs]
    cells = start + slots
    end = program.cell_start[1:][procs]
    past = (cells < start) | (cells >= end)
    if past.any():
        i = np.flatnonzero(past)[0]
        raise ValueError(f"output cell slot {slots[i]} lies outside the {end[i] - start[i]} "
                         f"output cells of processor {procs[i]}")
    return cells


def _give_cells(program, cells, values):
    """Add ``values[i]`` into output cell ``cells[i]``, an index into the
    run's table of given cells, ascending and distinct, for every i: a cell
    already given becomes old (+) new, with one ``vadd`` over all of them,
    and a fresh one counts its word."""
    store, given = program.cell_values, program.given
    held = given[cells]
    fresh, kept = cells[~held], cells[held]
    store[fresh] = values[~held]
    store[kept] = program.spec.vadd(store[kept], values[held])
    given[fresh] = True
    program.state_words += np.bincount(program.cell_owner[fresh], minlength=program.num_procs)


_GROUP_DISPATCH = {
    Gather: _GroupKind(_gather_words, _gather_step),
    Rotate: _GroupKind(_rotate_words, _rotate_step),
    Scatter: _GroupKind(_scatter_words, _scatter_step),
    Fetch: _GroupKind(_fetch_words, _fetch_step),
}


def assemble_output(outputs, rows, cols, spec: SemiringSpec) -> np.ndarray:
    """Place each block of a run's ``outputs`` columns (see
    ``Program.finalize``), as stored, in a rows x cols array of zeros.

    A flat block is one row, at columns ``c0`` on where its col is an
    int, or at the columns its col lists where that is an int array (a
    row of output cells).  No plan emits a cell twice, so each block is
    written once; cells no block covers keep the carrier's zero."""
    data = spec.zeros(rows, cols)
    for r0, c0, block in zip(*outputs[1:]):
        if isinstance(c0, np.ndarray):
            data[r0, c0] = block
            continue
        height, width = block.shape if block.ndim == 2 else (1, len(block))
        data[r0 : r0 + height, c0 : c0 + width] = block
    return data
