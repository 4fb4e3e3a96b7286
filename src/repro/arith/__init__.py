"""Fixed-point datapath and the approximate execution engine.

This package is the bridge between the bit-level hardware models of
:mod:`repro.hardware` and the floating-point world of the iterative
methods in :mod:`repro.solvers` / :mod:`repro.apps`:

* :class:`FixedPointFormat` — a Q-format two's-complement encoding that
  converts float tensors to machine words and back;
* :class:`ApproxEngine` — executes additions, reductions, dot products,
  matrix-vector products and weighted sums *through* a chosen adder
  model, charging every elementary addition to an :class:`EnergyLedger`.
  A dense matvec or weighted sum (one weight vector, or a ``(k, n)``
  block of them) runs product, encode and tree fold one L2-sized tile
  at a time, reduced axis outermost;
* :class:`ResidentVector` — fixed-point words kept resident between
  chained engine kernels (pass ``resident=True`` to any kernel);
* :class:`SparseResidentMatrix` / :class:`SparseReductionPlan` — the
  CSR sparse operand and its level-ordered per-row reduce (each tree
  level adds two contiguous halves in L2-sized chunks): matvec /
  weighted_sum accumulate each output row's own nnz products through
  the approximate adder (``nnz_i - 1`` adds per row);
* :class:`BatchedEngine` / :class:`LaneStack` /
  :class:`BatchedEnergyLedger` — the lock-step lane-parallel variant:
  one kernel call advances a whole stack of independent workloads with
  bit-identical per-lane results and exact per-lane energy accounting
  (a replay's deferred charges flush in one gather and one scatter);
* :class:`ProgramEngine` / :class:`IterationProgram` — CUDA-graph-style
  capture/replay for the online loop: one interpreted iteration is
  recorded into a compiled program that later iterations replay with
  bit-identical iterates and a float-equal energy ledger, constant
  operands resolving to their compile-time encodings.  One step class
  per op serves solo runs and lane groups alike, compiled for the lane
  count of its recording (:mod:`repro.arith.program`);
* :mod:`repro.arith.modes` — the quality-configurable mode registry
  (``level1`` .. ``level4`` + ``accurate``) mirroring the paper's
  experimental platform.
"""

from repro.arith.engine import (
    ApproxEngine,
    BatchedEnergyLedger,
    BatchedEngine,
    EnergyLedger,
    LaneStack,
    ResidentVector,
    SparseReductionPlan,
    SparseResidentMatrix,
)
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import ApproxMode, ModeBank, default_mode_bank
from repro.arith.program import (
    IterationProgram,
    ProgramEngine,
    ProgramExecutor,
    ProgramRecorder,
)

__all__ = [
    "ApproxEngine",
    "ApproxMode",
    "BatchedEnergyLedger",
    "BatchedEngine",
    "EnergyLedger",
    "FixedPointFormat",
    "IterationProgram",
    "LaneStack",
    "ModeBank",
    "ProgramEngine",
    "ProgramExecutor",
    "ProgramRecorder",
    "ResidentVector",
    "SparseReductionPlan",
    "SparseResidentMatrix",
    "default_mode_bank",
]
