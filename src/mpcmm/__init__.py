"""Round-budgeted simulator for semiring matrix multiplication.

The package simulates bulk-synchronous machines with per-processor
memory and per-round communication budgets, ships a library of
multiplication schedules (square, rectangular, sparse) whose round
counts realize the known tight bounds, and provides the closed-form
lower-bound calculators to sandwich every measured count.
"""

from .bounds import (
    BoundReport,
    lower_bound_dnd,
    lower_bound_ndn,
    lower_bound_square,
    lower_bound_tree_sum,
    term_capacity,
)
from .engine import (
    BandwidthExceeded,
    MemoryExceeded,
    MpcConfig,
    MpcError,
    Message,
    NonTermination,
    Program,
    Transcript,
    assert_transcript,
    run,
)
from .matrix import (
    DenseMatrix,
    SparseMatrix,
    check_d_sparse,
    load_matrix,
    naive_multiply,
    pad_to_multiple,
    save_matrix,
)
from .plan import MissingTile
from .schedules.rect import SumTask, schedule_dnd_dproc, schedule_dnd_nproc, schedule_ndn, tree_sum
from .schedules.sparse import (
    Decomposition,
    EpsilonSchedule,
    OutputMask,
    decompose,
    default_mask,
    iteration_budget,
    schedule_sparse_trivial,
    schedule_sparse_twophase,
)
from .schedules.square import ProblemShape, schedule_square, square_rounds_upper
from .semiring import SemiringSpec, builtin_semirings, get_semiring

__version__ = "0.1.0"
