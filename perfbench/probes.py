"""Outside-in probes: time the package's layers by wrapping public entry points.

Nothing under ``src/`` is edited.  ``Probes`` replaces module attributes
and class methods for the duration of a ``with`` block and restores them
on exit.  Each wrapped call is a span; a span's self time is its duration
minus the time of the spans it caused.  Spans are aggregated on the fly
(per name: inclusive time, self time, calls), not kept one by one.

Two levels:

* ``phases`` (end-to-end runs): three probes per config, around instance
  generation, schedule build and ``Schedule.execute``.
* ``layers`` (traced runs): additionally the builders' fragments, the
  engine, the plan interpreter, output assembly, the semiring kernels, the
  oracle, the output comparison and artifact writing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import Counter, defaultdict

import mpcmm.engine
import mpcmm.experiment
import mpcmm.schedules.common
import mpcmm.schedules.rect
import mpcmm.schedules.sparse
from mpcmm.matrix import DenseMatrix
from mpcmm.plan import PlanProgram

_clock = time.perf_counter

ORACLE = "matrix.oracle"
OP_KINDS = ("Mac", "MulAcc", "Acc", "AccCell", "Cell", "Assemble", "Slice", "Pack", "Send", "Drop")
KERNEL_KINDS = {"matmul": "semiring.matmul", "vadd": "semiring.elementwise",
                "vmul": "semiring.elementwise"}


class Probes:
    """Span and count accumulator plus the patches that feed it."""

    def __init__(self, level: str):
        if level not in ("phases", "layers"):
            raise ValueError(f"unknown probe level {level!r}")
        self.level = level
        self.incl = defaultdict(float)  # span name -> inclusive seconds
        self.self_s = defaultdict(float)  # span name -> self seconds
        self.calls = Counter()
        self.counts = Counter()  # work counters (ops by kind, words, terms, ...)
        self._stack = [["root", 0.0, 0.0]]  # frames: [name, start, child seconds]
        self._undo = []

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def frame(self, name):
        """A span opened by the benchmark itself."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _enter(self, name):
        self._stack.append([name, _clock(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = _clock() - start
        self.incl[name] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self._stack[-1][2] += dur

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """The pass's end-to-end figures, plus per-layer ones at ``layers``."""
        inc, own, calls, cnt = self.incl, self.self_s, self.calls, self.counts
        setup = inc["instances.gen"] + inc["schedules.build"]
        if self.level == "phases":
            return {"run_s": inc["experiment.run"], "setup_s": setup,
                    "simulate_s": inc["schedule.execute"]}
        ops = max(cnt["schedules.plan_ops"], 1)
        interp = own["plan.handler"] + own["plan.finalize"]
        proc_rounds = max(cnt["engine.proc_rounds"], 1)
        metrics = {
            "trace.run_s": inc["experiment.run"],
            "trace.setup_s": setup,
            "trace.simulate_s": inc["schedule.execute"],
            "instances.gen_s": inc["instances.gen"],
            "schedules.build_s": inc["schedules.build"],
            "schedules.plan_ops": ops,
            "schedules.build_us_per_op": inc["schedules.build"] / ops * 1e6,
            "sparse.decompose_s": inc["sparse.decompose"],
            "rect.tree_sum_fragment_s": inc["rect.tree_sum_fragment"],
            "plan.interp_self_s": interp,
            "plan.us_per_op": interp / ops * 1e6,
            "plan.assemble_output_s": own["plan.assemble_output"],
            "engine.self_s": own["engine.run"],
            "engine.proc_rounds": proc_rounds,
            "engine.messages": cnt["engine.messages"],
            "engine.words": cnt["engine.words"],
            "engine.us_per_proc_round": own["engine.run"] / proc_rounds * 1e6,
            "semiring.matmul_s": inc["semiring.matmul"],
            "semiring.matmul_calls": calls["semiring.matmul"],
            "semiring.matmul_terms": cnt["semiring.matmul_terms"],
            "semiring.elementwise_s": inc["semiring.elementwise"],
            "semiring.elementwise_calls": calls["semiring.elementwise"],
            "matrix.oracle_s": inc[ORACLE],
            "matrix.oracle_terms": cnt["matrix.oracle_terms"],
            "experiment.compare_s": inc["experiment.compare"],
            "experiment.write_s": inc["experiment.write"],
        }
        for kind in OP_KINDS:
            metrics[f"plan.ops.{kind}"] = cnt[f"plan.ops.{kind}"]
        return metrics

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        exp = mpcmm.experiment
        common = mpcmm.schedules.common
        self._patch(exp, "generate_instance", self._span("instances.gen", exp.generate_instance))
        self._patch(exp, "build_schedule", self._traced_build(exp.build_schedule))
        self._patch(common.Schedule, "execute", self._span("schedule.execute", common.Schedule.execute))
        if self.level == "layers":
            self._patch_layers()
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        return False

    def _traced_build(self, build):
        timed = self._span("schedules.build", build)

        def wrapper(*args, **kwargs):
            schedule = timed(*args, **kwargs)
            if self.level == "layers":
                plan = schedule.program.plan
                for ops in (*plan.ops.values(), *plan.final_ops.values()):
                    for op in ops:
                        self.counts["plan.ops." + type(op).__name__] += 1
                        self.counts["schedules.plan_ops"] += 1
            return schedule

        return wrapper

    def _patch_layers(self):
        exp = mpcmm.experiment
        common = mpcmm.schedules.common
        rect = mpcmm.schedules.rect
        sparse = mpcmm.schedules.sparse
        self._patch(sparse, "decompose", self._span("sparse.decompose", sparse.decompose))
        self._patch(rect, "tree_sum_fragment",
                    self._span("rect.tree_sum_fragment", rect.tree_sum_fragment))
        self._patch(common, "run", self._traced_engine(common.run))
        self._patch(PlanProgram, "handler", self._traced_handler(PlanProgram.handler))
        self._patch(PlanProgram, "finalize", self._span("plan.finalize", PlanProgram.finalize))
        self._patch(common, "assemble_output",
                    self._span("plan.assemble_output", common.assemble_output))
        self._patch(exp, "get_semiring", self._traced_semiring(exp.get_semiring))
        self._patch(exp, "naive_multiply", self._traced_oracle(exp.naive_multiply))
        self._patch(exp, "masked_equal", self._span("experiment.compare", exp.masked_equal))
        self._patch(DenseMatrix, "__eq__", self._span("experiment.compare", DenseMatrix.__eq__))
        self._patch(mpcmm.engine.Transcript, "to_csv",
                    self._span("experiment.write", mpcmm.engine.Transcript.to_csv))
        # run_experiment writes each artifact inside one `with open(...)`
        # block; shadowing `open` in that module times each block.
        self._patch(exp, "open", self._traced_open)

    def _traced_engine(self, run):
        timed = self._span("engine.run", run)

        def wrapper(program, config):
            result = timed(program, config)
            self.counts["engine.proc_rounds"] += len(result.transcript.rows)
            self.counts["engine.words"] += sum(r.words_sent for r in result.transcript.rows)
            return result

        return wrapper

    def _traced_handler(self, handler):
        def wrapper(program, round_no, p, state, inbox):
            self._enter("plan.handler")
            try:
                state, sends = handler(program, round_no, p, state, inbox)
                self.counts["engine.messages"] += len(sends)
                return state, sends
            finally:
                self._exit()

        return wrapper

    def _traced_oracle(self, oracle):
        timed = self._span(ORACLE, oracle)

        def wrapper(a, b, spec):
            self.counts["matrix.oracle_terms"] += a.rows * a.cols * b.cols
            return timed(a, b, spec)

        return wrapper

    def _traced_semiring(self, get_semiring):
        def wrapper(name):
            spec = get_semiring(name)
            kernels = {attr: self._kernel(KERNEL_KINDS[attr], getattr(spec, attr))
                       for attr in KERNEL_KINDS}
            return dataclasses.replace(spec, **kernels)

        return wrapper

    def _kernel(self, name, fn):
        """A leaf span; kernel calls made by the oracle stay in the oracle's time."""
        stack = self._stack
        is_matmul = name == "semiring.matmul"

        def wrapper(x, y):
            parent = stack[-1]
            if parent[0] == ORACLE:
                return fn(x, y)
            start = _clock()
            out = fn(x, y)
            dur = _clock() - start
            parent[2] += dur
            self.incl[name] += dur
            self.calls[name] += 1
            if is_matmul:
                self.counts["semiring.matmul_terms"] += x.shape[0] * x.shape[1] * y.shape[1]
            return out

        return wrapper

    @contextlib.contextmanager
    def _traced_open(self, *args, **kwargs):
        """``open`` for ``with`` blocks only: each block is one write span."""
        with self.frame("experiment.write"), open(*args, **kwargs) as fh:
            yield fh
