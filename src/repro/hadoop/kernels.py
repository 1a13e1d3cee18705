"""Declarative tile-kernel plans: the unit of work a backend can ship.

The local executor's task closures are *not* picklable (the compiler fuses
element-wise operators into nested lambdas), so the process backend cannot
ship a task's ``run`` callable to a worker.  What it ships instead is a
:class:`BlockPlan`: a batch of sum-of-products over a shared table of dense
payloads — exactly the arithmetic a mult or add task performs, with every
per-tile Python overhead (store lookups, shape checks, sparsity probes)
stripped out.  Batching a whole task into one plan is what amortizes the
dispatch round-trip; :func:`execute_plan` is the single shared evaluator, so
the inline fallback, the unit tests, and the pool workers all run the same
operation sequence and produce bit-identical floats.

A *term* ``(left, right)`` names indices into the payload table and
contributes ``payloads[left] @ payloads[right]`` to its output; with
``right is None`` it contributes ``payloads[left]`` (the add-partials job).
Terms of one output accumulate left-to-right with ``+``, matching the
reference thread-backend runners in :mod:`repro.core.physical` term for
term.

The module also hosts the dispatcher registry: an executor backend installs
a :class:`KernelDispatcher` for the duration of a run, and runners consult
:func:`current_dispatcher` at execution time.  With none installed (the
thread backend, or any non-offloadable task) runners take their original
inline path untouched.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.matrix.tile import dense_matmul

#: One addend of an output: (left payload index, right payload index|None).
Term = tuple[int, "int | None"]


@dataclass(frozen=True)
class BlockPlan:
    """A batch of sum-of-products over one shared payload table.

    ``transposed[i]`` applies a logical transpose to payload ``i`` before
    use (the stored array crosses the process boundary untransposed, the
    worker applies ``.T`` exactly like the inline runner does).
    ``outputs[o]`` lists the terms of output ``o`` in accumulation order.
    ``out_shapes[o]`` is the dense shape of output ``o`` — the dispatcher
    sizes response buffers from it without touching any payload.
    """

    transposed: tuple[bool, ...]
    outputs: tuple[tuple[Term, ...], ...]
    out_shapes: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.outputs) != len(self.out_shapes):
            raise ValidationError("outputs and out_shapes must align")
        if not self.outputs:
            raise ValidationError("plan must have at least one output")
        n = len(self.transposed)
        for terms in self.outputs:
            if not terms:
                raise ValidationError("every output needs at least one term")
            for left, right in terms:
                if not 0 <= left < n or (right is not None
                                         and not 0 <= right < n):
                    raise ValidationError(
                        f"term ({left}, {right}) outside payload table "
                        f"of size {n}")

    @property
    def num_tiles(self) -> int:
        """Tile-level kernel invocations this plan batches (for metrics)."""
        return sum(len(terms) for terms in self.outputs) + len(self.outputs)


@dataclass(frozen=True, eq=False)
class PackedPlan:
    """An array-encoded :class:`BlockPlan` for the regular-shape fast path.

    When every payload shares one dense shape, every output shares one
    shape and term count, every term is the same kind (all matmul or all
    pass-through), and each operand side has a uniform transpose flag, the
    plan collapses to a pair of index vectors over the payload table.  That
    buys two things: the plan pickles as flat numpy buffers (nested tuples
    cost milliseconds to rebuild in the worker), and the worker can
    evaluate it with a handful of C-level calls — one gather per side, one
    batched ``np.matmul``, and a lockstep accumulation — instead of a
    Python loop per term.  See :func:`execute_packed` for why the result
    is still bit-identical to :func:`execute_plan`.
    """

    payload_shape: tuple[int, int]
    n_payloads: int
    left: np.ndarray          #: int64 (n_terms,) — left payload per term
    right: "np.ndarray | None"  #: int64 (n_terms,); None => pass-through plan
    left_transposed: bool
    right_transposed: bool
    terms_per_output: int
    out_shape: tuple[int, int]
    n_outputs: int

    @property
    def num_tiles(self) -> int:
        """Tile-level kernel invocations this plan batches (for metrics)."""
        return self.n_outputs * self.terms_per_output + self.n_outputs


def pack_plan(plan: BlockPlan,
              payload_shape: tuple[int, int]) -> PackedPlan | None:
    """Collapse ``plan`` to a :class:`PackedPlan`, or ``None`` if it is
    irregular (mixed term kinds, ragged shapes or counts, mixed transpose
    flags) — callers then stay on the general tuple path."""
    out_shape = plan.out_shapes[0]
    if any(shape != out_shape for shape in plan.out_shapes):
        return None
    terms_per_output = len(plan.outputs[0])
    if any(len(terms) != terms_per_output for terms in plan.outputs):
        return None
    try:
        # (n_outputs, terms_per_output, 2) in one C pass; plans with any
        # pass-through term (right is None) refuse the int conversion.
        table = np.array(plan.outputs, dtype=np.int64)
        left, right = table[:, :, 0].ravel(), table[:, :, 1].ravel()
    except (TypeError, ValueError):
        if any(right is not None
               for terms in plan.outputs for __, right in terms):
            return None  # a mix of matmul and pass-through terms
        left = np.array([index for terms in plan.outputs
                         for index, __ in terms], dtype=np.int64)
        right = None
    transposed = np.asarray(plan.transposed, dtype=bool)
    left_flags = transposed[left]
    left_transposed = bool(left_flags[0])
    if not (left_flags == left_transposed).all():
        return None
    right_transposed = False
    if right is not None:
        right_flags = transposed[right]
        right_transposed = bool(right_flags[0])
        if not (right_flags == right_transposed).all():
            return None
    return PackedPlan(
        payload_shape=(int(payload_shape[0]), int(payload_shape[1])),
        n_payloads=len(plan.transposed),
        left=left, right=right,
        left_transposed=left_transposed,
        right_transposed=right_transposed,
        terms_per_output=terms_per_output,
        out_shape=(int(out_shape[0]), int(out_shape[1])),
        n_outputs=len(plan.outputs),
    )


def execute_packed(packed: PackedPlan, table: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized evaluation of a :class:`PackedPlan`.

    ``table`` is the payload table as one ``(n_payloads, rows, cols)``
    array.  Returns ``(outputs, counts)`` with ``outputs`` of shape
    ``(n_outputs, *out_shape)`` and per-output nonzero counts.

    Bit-identity with :func:`execute_plan` holds because every scalar sees
    the same operations in the same order: a batched ``np.matmul`` runs
    the same 2-D kernel per slice that the term loop runs per tile, and
    the accumulation walks term positions left-to-right in lockstep across
    outputs — for each output element that is exactly the inline
    ``((t0 + t1) + t2) ...`` sequence.
    """
    if table.shape != (packed.n_payloads, *packed.payload_shape):
        raise ValidationError(
            f"packed plan expects table {packed.n_payloads} x "
            f"{packed.payload_shape}, got {table.shape}")
    lefts = table[packed.left]
    if packed.left_transposed:
        lefts = lefts.transpose(0, 2, 1)
    if packed.right is None:
        products = lefts  # pass-through terms; the gather already copied
    else:
        rights = table[packed.right]
        if packed.right_transposed:
            rights = rights.transpose(0, 2, 1)
        products = np.matmul(lefts, rights)
    span = packed.terms_per_output
    if span == 1:
        outputs = np.ascontiguousarray(products)
    else:
        stacked = products.reshape(packed.n_outputs, span,
                                   *products.shape[1:])
        outputs = stacked[:, 0]
        for position in range(1, span):
            outputs = outputs + stacked[:, position]
    if outputs.shape[1:] != packed.out_shape:
        raise ValidationError(
            f"packed plan produced {outputs.shape[1:]}, "
            f"expected {packed.out_shape}")
    counts = np.count_nonzero(outputs.reshape(packed.n_outputs, -1), axis=1)
    return outputs, counts


@dataclass(frozen=True, eq=False)
class GridMultPlan:
    """A whole mult task described by its grid geometry alone.

    A mult task's payload table always has block structure — the A tiles
    for ``(i, k)`` in row-major order, then the B tiles for ``(k, j)`` —
    so when tile shapes are uniform per operand nothing about the task
    needs per-term encoding: output ``(i, j)`` is ``sum_k A[i,k] @ B[k,j]``
    by construction.  The evaluator exploits that layout with broadcasted
    batched matmuls over *views* of the two blocks: no gather, no index
    vectors, and the per-``k`` working set stays cache-resident instead of
    materializing every duplicated operand tile the way a packed gather
    must.
    """

    ni: int
    nj: int
    nk: int
    a_shape: tuple[int, int]
    b_shape: tuple[int, int]
    left_transposed: bool
    right_transposed: bool
    out_shape: tuple[int, int]

    @property
    def a_count(self) -> int:
        return self.ni * self.nk

    @property
    def b_count(self) -> int:
        return self.nk * self.nj

    @property
    def n_outputs(self) -> int:
        return self.ni * self.nj

    @property
    def num_tiles(self) -> int:
        """Tile-level kernel invocations this plan batches (for metrics)."""
        return self.ni * self.nj * self.nk + self.ni * self.nj


def expand_grid(plan: GridMultPlan) -> BlockPlan:
    """The equivalent :class:`BlockPlan` (payloads: A block, then B block).

    This is the reference semantics of a grid plan; dispatchers without a
    structured fast path evaluate grid tasks through it.
    """
    a_count = plan.a_count
    outputs = tuple(
        tuple((i * plan.nk + k, a_count + k * plan.nj + j)
              for k in range(plan.nk))
        for i in range(plan.ni) for j in range(plan.nj))
    transposed = (plan.left_transposed,) * a_count \
        + (plan.right_transposed,) * plan.b_count
    return BlockPlan(transposed, outputs,
                     (plan.out_shape,) * plan.n_outputs)


def execute_grid_mult(plan: GridMultPlan, a_block: np.ndarray,
                      b_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a grid mult over its two payload blocks.

    ``a_block`` is ``(ni * nk, *a_shape)``, ``b_block`` ``(nk * nj,
    *b_shape)``.  Returns ``(outputs, counts)`` with ``outputs`` of shape
    ``(ni * nj, *out_shape)`` in row-major ``(i, j)`` order.

    Bit-identity with the inline runner: each broadcast slice is the same
    2-D matmul kernel on the same operand views, and the ``k`` loop
    accumulates ascending with elementwise ``+`` — per output element
    exactly the inline ``((p0 + p1) + p2) ...`` sequence.
    """
    if a_block.shape != (plan.a_count, *plan.a_shape):
        raise ValidationError(
            f"grid plan expects A block {plan.a_count} x {plan.a_shape}, "
            f"got {a_block.shape}")
    if b_block.shape != (plan.b_count, *plan.b_shape):
        raise ValidationError(
            f"grid plan expects B block {plan.b_count} x {plan.b_shape}, "
            f"got {b_block.shape}")
    lefts = a_block.reshape(plan.ni, plan.nk, *plan.a_shape)
    rights = b_block.reshape(plan.nk, plan.nj, *plan.b_shape)
    if plan.left_transposed:
        lefts = lefts.transpose(0, 1, 3, 2)
    if plan.right_transposed:
        rights = rights.transpose(0, 1, 3, 2)
    rights = rights.transpose(1, 0, 2, 3)  # index as [j, k]
    accumulator = None
    for k in range(plan.nk):
        # (ni, 1, r, s) @ (1, nj, s, c) -> (ni, nj, r, c): one gufunc call
        # over views, nothing materialized but the products themselves.
        product = np.matmul(lefts[:, None, k], rights[None, :, k])
        accumulator = product if accumulator is None \
            else accumulator + product
    outputs = accumulator.reshape(plan.n_outputs, *accumulator.shape[2:])
    if outputs.shape[1:] != plan.out_shape:
        raise ValidationError(
            f"grid plan produced {outputs.shape[1:]}, "
            f"expected {plan.out_shape}")
    counts = np.count_nonzero(outputs.reshape(plan.n_outputs, -1), axis=1)
    return outputs, counts


def execute_plan(plan: BlockPlan,
                 payloads: list[np.ndarray]) -> list[tuple[np.ndarray, int]]:
    """Evaluate every output of ``plan``; returns ``(array, nnz)`` pairs.

    The operation sequence — transpose views, GEMM products
    (:func:`~repro.matrix.tile.dense_matmul`), left-to-right ``+`` —
    mirrors the inline runners exactly, so results are bit-identical to the
    thread backend's on the same inputs.
    """
    if len(payloads) != len(plan.transposed):
        raise ValidationError(
            f"plan expects {len(plan.transposed)} payloads, "
            f"got {len(payloads)}")
    views = [payload.T if flag else payload
             for payload, flag in zip(payloads, plan.transposed)]
    results: list[tuple[np.ndarray, int]] = []
    for terms in plan.outputs:
        accumulator = None
        for left, right in terms:
            value = views[left] if right is None \
                else dense_matmul(views[left], views[right])
            accumulator = value if accumulator is None \
                else accumulator + value
        if accumulator.base is not None or any(
                accumulator is view for view in views):
            # A single pass-through term would alias an input; own the data.
            accumulator = accumulator.copy()
        results.append((accumulator, int(np.count_nonzero(accumulator))))
    return results


#: Plan kinds, as recorded in per-plan metrics and worker kernel spans.
PLAN_BLOCK = "block"
PLAN_PACKED = "packed"
PLAN_GRID = "grid"


def plan_kind(plan) -> str:
    """The short kind name of a kernel plan (``block``/``packed``/``grid``).

    This is the label worker-side kernel spans and the ``procpool.*``
    per-plan metrics are keyed by, so profiles aggregate consistently
    across the dispatcher and the workers.
    """
    if isinstance(plan, GridMultPlan):
        return PLAN_GRID
    if isinstance(plan, PackedPlan):
        return PLAN_PACKED
    return PLAN_BLOCK


class KernelDispatcher:
    """Where a backend sends batched kernel plans for evaluation."""

    #: Short name recorded in per-backend metrics.
    name = "abstract"

    def run_plan(self, payloads: list[np.ndarray],
                 plan: BlockPlan) -> list[tuple[np.ndarray, int]]:
        """Evaluate ``plan`` over dense float64 payloads.

        Returns one ``(dense result, nonzero count)`` pair per plan output,
        in order.  Implementations must preserve :func:`execute_plan`'s
        operation sequence bit for bit.
        """
        raise NotImplementedError

    def run_grid_mult(self, a_payloads: list[np.ndarray],
                      b_payloads: list[np.ndarray], plan: GridMultPlan
                      ) -> list[tuple[np.ndarray, int]]:
        """Evaluate a structured mult task (see :class:`GridMultPlan`).

        The default expands to the equivalent :class:`BlockPlan` and goes
        through :meth:`run_plan`; backends with a structured fast path
        override this.
        """
        return self.run_plan(list(a_payloads) + list(b_payloads),
                             expand_grid(plan))


class InlineDispatcher(KernelDispatcher):
    """Evaluates plans in the calling thread — the degenerate backend used
    by unit tests to lock plan semantics without any processes."""

    name = "inline"

    def run_plan(self, payloads, plan):
        return execute_plan(plan, payloads)


# -- the active-dispatcher registry -------------------------------------------
#
# A plain stack guarded by a lock: executor threads only read the top, and
# installs happen before task threads start.  Nested runs (a service driving
# an executor) push/pop without clobbering each other.

_lock = threading.Lock()
_stack: list[KernelDispatcher] = []


def current_dispatcher() -> KernelDispatcher | None:
    """The dispatcher task runners should offload to, if any."""
    with _lock:
        return _stack[-1] if _stack else None


@contextmanager
def use_dispatcher(dispatcher: KernelDispatcher):
    """Install ``dispatcher`` for the duration of the with-block."""
    with _lock:
        _stack.append(dispatcher)
    try:
        yield dispatcher
    finally:
        with _lock:
            # Remove by identity, not position: interleaved exits from
            # concurrent runs must each drop their own entry.
            for index in range(len(_stack) - 1, -1, -1):
                if _stack[index] is dispatcher:
                    del _stack[index]
                    break
