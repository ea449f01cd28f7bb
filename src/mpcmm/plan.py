"""Dataflow plans: the instruction set round schedules compile to.

A schedule builder precomputes, per (round, processor), a short list of
ops over a key -> tile store.  The generic :class:`PlanProgram` then
interprets those ops inside the engine's handler.  Keys are tuples such
as ("A", i, q); payloads of bundled sends carry (key, shape) tags so the
receiver can restore tiles into its own store.

Ops::

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass
class Plan:
    """Per-round, per-processor op lists plus initial state and outputs."""

    num_procs: int
    num_rounds: int
    min_memory: int = 1
    init: dict = field(default_factory=dict)  # proc -> {key: array}
    ops: dict = field(default_factory=dict)  # (round, proc) -> [op]; see PlanProgram
    final_ops: dict = field(default_factory=dict)  # proc -> [op]
    emits: dict = field(default_factory=dict)  # proc -> [Emit]

    def add(self, round_no, proc, *ops):
        self.ops.setdefault((round_no, proc), []).extend(ops)

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
        # Ops added to rounds past the last one run at finalize, in round
        # order, after the processor's ``at_final`` ops.
        self.late_ops = {}
        for round_no, p in sorted(k for k in plan.ops if k[0] > plan.num_rounds):
            self.late_ops.setdefault(p, []).extend(plan.ops[round_no, p])

    def init_state(self, p):
        return dict(self.plan.init.get(p, {}))

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

    def handler(self, round_no, p, state, inbox):
        store = self._merge(state, inbox)
        sends = []
        self._exec(store, self.plan.ops.get((round_no, p), ()), sends)
        return store, sends

    def finalize(self, p, state, inbox):
        store = self._merge(state, inbox)
        self._exec(store, self.plan.final_ops.get(p, ()))
        self._exec(store, self.late_ops.get(p, ()))
        out = []
        for e in self.plan.emits.get(p, ()):
            block = store.get(e.key)
            if block is None:
                block = np.full(e.shape, self.spec.zero, dtype=np.int64)
            out.append((e.row, e.col, block.reshape(e.shape)))
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
