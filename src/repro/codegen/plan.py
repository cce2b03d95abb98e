"""Compiled execution plans for lowered operators.

The eager generator (:mod:`repro.codegen.eager`) re-interprets the pGraph on
every single forward call: it walks the applications, re-derives the axis
bookkeeping, rebuilds einsum subscript strings and allocates one VJP closure
per primitive for the autograd tape.  During proxy training that
interpretation overhead is paid once per training step per layer — by far the
hottest path in the whole system.

:func:`compile_plan` performs the walk **once** per ``(graph, binding)`` and
emits a flat :class:`ExecutionPlan`: a sequence of primitive numpy steps with
every transpose order, reshape target, unfold gather/scatter index set and
einsum subscript (plus its ``np.einsum_path`` contraction path) precomputed at
compile time.  Each step also knows its own hand-derived backward rule, so a
training step pays neither tape construction nor topological sorting — the
whole operator becomes a single autograd node with one shared backward pass.

Adjacent transpose/reshape steps are fused and identity steps dropped at plan
build time.  Plans are memoized per :class:`EagerOperator` instance and in
the runtime context's plan cache (``current().caches.plan``), keyed by the
graph's canonical signature plus the concrete binding, so structurally
identical candidates across a search session share one compiled plan.

``REPRO_COMPILED_FORWARD=0`` keeps the original eager interpreter for A/B
timing; the two paths agree to numerical tolerance (see
``tests/test_plan_parity.py``).
"""

from __future__ import annotations

import string
from typing import Mapping, Sequence

import numpy as np

from repro.core.operator import SynthesizedOperator
from repro.core.pgraph import Dim
from repro.core.primitives import Expand, Merge, Reduce, Share, Shift, Split, Stride, Unfold
from repro.ir.variables import Variable
from repro.runtime import current


class PlanError(RuntimeError):
    """Raised when a pGraph cannot be compiled to an execution plan."""


def _dummy(shape: Sequence[int]) -> np.ndarray:
    """A zero-stride stand-in array for ``np.einsum_path`` shape queries."""
    return np.broadcast_to(np.empty((), dtype=np.float64), tuple(shape))


# ---------------------------------------------------------------------------
# Plan steps
# ---------------------------------------------------------------------------
#
# Every step implements ``run`` (numpy in, numpy out) and ``grad`` (upstream
# gradient in, gradient w.r.t. the step's input out).  Only the contraction
# step takes weight operands; it is the only step that needs its input value
# saved for the backward pass.


class TransposeStep:
    __slots__ = ("order", "inverse")

    def __init__(self, order: tuple[int, ...]) -> None:
        self.order = order
        self.inverse = tuple(int(i) for i in np.argsort(order))

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.transpose(self.order)

    def grad(self, g: np.ndarray) -> np.ndarray:
        return g.transpose(self.inverse)

    def __repr__(self) -> str:
        return f"Transpose{self.order}"


class ReshapeStep:
    __slots__ = ("shape", "input_shape")

    def __init__(self, shape: tuple[int, ...], input_shape: tuple[int, ...]) -> None:
        self.shape = shape
        self.input_shape = input_shape

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.shape)

    def grad(self, g: np.ndarray) -> np.ndarray:
        return g.reshape(self.input_shape)

    def __repr__(self) -> str:
        return f"Reshape{self.shape}"


class RollStep:
    __slots__ = ("shift", "axis")

    def __init__(self, shift: int, axis: int) -> None:
        self.shift = shift
        self.axis = axis

    def run(self, x: np.ndarray) -> np.ndarray:
        return np.roll(x, self.shift, axis=self.axis)

    def grad(self, g: np.ndarray) -> np.ndarray:
        return np.roll(g, -self.shift, axis=self.axis)

    def __repr__(self) -> str:
        return f"Roll({self.shift}, axis={self.axis})"


class BroadcastStep:
    """The Expand primitive: repeat the tensor along a new trailing axis."""

    __slots__ = ("shape",)

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape = shape  # input shape + (extent,)

    def run(self, x: np.ndarray) -> np.ndarray:
        # A zero-stride view; downstream steps copy only if they must.
        return np.broadcast_to(x[..., None], self.shape)

    def grad(self, g: np.ndarray) -> np.ndarray:
        return g.sum(axis=-1)

    def __repr__(self) -> str:
        return f"Broadcast{self.shape}"


class SumStep:
    """The Reduce primitive: sum over one axis."""

    __slots__ = ("axis", "input_shape")

    def __init__(self, axis: int, input_shape: tuple[int, ...]) -> None:
        self.axis = axis
        self.input_shape = input_shape

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.sum(axis=self.axis)

    def grad(self, g: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.expand_dims(g, self.axis), self.input_shape)

    def __repr__(self) -> str:
        return f"Sum(axis={self.axis})"


class StrideSliceStep:
    """The Stride primitive: select every ``step``-th element along one axis."""

    __slots__ = ("slices", "input_shape")

    def __init__(self, axis: int, step: int, input_shape: tuple[int, ...]) -> None:
        self.slices = tuple(
            slice(None, None, step) if current == axis else slice(None)
            for current in range(len(input_shape))
        )
        self.input_shape = input_shape

    def run(self, x: np.ndarray) -> np.ndarray:
        return x[self.slices]

    def grad(self, g: np.ndarray) -> np.ndarray:
        out = np.zeros(self.input_shape, dtype=g.dtype)
        out[self.slices] = g
        return out

    def __repr__(self) -> str:
        return f"StrideSlice{self.slices}"


class UnfoldStep:
    """The Unfold primitive: same-padded sliding windows along one axis.

    Forward is pad → gather → reshape → move-window-axis-to-end, with the
    gather index vector precomputed.  Backward scatters with ``window`` shifted
    slice-adds into the padded buffer instead of a per-element ``np.add.at``
    — same sums, vectorized.
    """

    __slots__ = (
        "axis",
        "window",
        "extent",
        "offset",
        "pad_width",
        "gather",
        "reshape_shape",
        "transpose_axes",
        "inverse_axes",
        "padded_shape",
    )

    def __init__(self, axis: int, window: int, input_shape: tuple[int, ...]) -> None:
        # The geometry is the eager unfold1d's, computed once instead of per
        # call; only the backward scatter strategy differs from the eager VJP.
        from repro.nn.functional import unfold1d_geometry

        pad_width, gather, reshape_shape, transpose_axes = unfold1d_geometry(
            input_shape, axis, window
        )
        self.axis = axis
        self.window = window
        self.extent = input_shape[axis]
        self.offset = window // 2
        self.pad_width = pad_width
        self.gather = gather
        self.reshape_shape = reshape_shape
        self.transpose_axes = transpose_axes
        self.inverse_axes = tuple(int(i) for i in np.argsort(transpose_axes))
        self.padded_shape = tuple(
            size + (lo + hi) for size, (lo, hi) in zip(input_shape, pad_width)
        )

    def run(self, x: np.ndarray) -> np.ndarray:
        padded = np.pad(x, self.pad_width)
        taken = np.take(padded, self.gather, axis=self.axis)
        return taken.reshape(self.reshape_shape).transpose(self.transpose_axes)

    def grad(self, g: np.ndarray) -> np.ndarray:
        g = g.transpose(self.inverse_axes)  # window axis back next to the main axis
        padded = np.zeros(self.padded_shape, dtype=g.dtype)
        dst = [slice(None)] * padded.ndim
        src = [slice(None)] * g.ndim
        for j in range(self.window):
            dst[self.axis] = slice(j, j + self.extent)
            src[self.axis + 1] = j
            padded[tuple(dst)] += g[tuple(src)]
        dst[self.axis] = slice(self.offset, self.offset + self.extent)
        return padded[tuple(dst)]

    def __repr__(self) -> str:
        return f"Unfold(axis={self.axis}, window={self.window})"


class _OperandGrad:
    """Precompiled backward recipe for one differentiable einsum operand."""

    __slots__ = ("subscripts", "path", "other_positions", "expand_shape", "full_shape")

    def __init__(self, subscripts, path, other_positions, expand_shape, full_shape) -> None:
        self.subscripts = subscripts
        self.path = path
        self.other_positions = other_positions
        self.expand_shape = expand_shape
        self.full_shape = full_shape


class ContractionStep:
    """A fused contraction group: Shares, Expands and Reduces as one einsum.

    The lowering emits runs of ``Share`` (multiply a weight in), ``Expand``
    (broadcast a new axis) and ``Reduce`` (sum an axis out).  Evaluated one by
    one those materialize enormous intermediates — every live axis of every
    weight, before the sums shrink anything.  Fused, they are a single
    ``np.einsum`` over ``[value, weights..., ones...]`` whose output subscript
    simply omits the reduced labels, so the contraction path chosen by
    ``np.einsum_path`` (at compile time) sums early and never builds the full
    product.  An ``Expand`` becomes a ones-vector operand, which the path
    optimizer folds away.

    Backward is einsum's classic swap: the gradient of operand ``i`` feeds the
    upstream gradient through ``(output, others...) -> operand_i``, with axes
    appearing in no other operand recovered by a precomputed broadcast.
    """

    __slots__ = (
        "subscripts",
        "operands",
        "operand_shapes",
        "output_shape",
        "path",
        "backwards",
        "weight_positions",
    )

    def __init__(
        self,
        operand_subs: Sequence[str],
        operand_specs: Sequence[tuple[str, int | None]],
        operand_shapes: Sequence[tuple[int, ...]],
        output_sub: str,
        output_shape: tuple[int, ...],
    ) -> None:
        self.operands = tuple(operand_specs)  # ("value", None) | ("weight", i) | ("ones", extent)
        # Retained for the static verifier (analysis.plan_verifier): the
        # concrete operand/output geometry this einsum was compiled against.
        self.operand_shapes = tuple(tuple(shape) for shape in operand_shapes)
        self.output_shape = tuple(output_shape)
        self.subscripts = ",".join(operand_subs) + "->" + output_sub
        self.path = np.einsum_path(
            self.subscripts, *[_dummy(shape) for shape in operand_shapes], optimize="optimal"
        )[0]
        self.weight_positions = tuple(
            position for position, (kind, _) in enumerate(self.operands) if kind == "weight"
        )

        extent_of = {}
        for sub, shape in zip(operand_subs, operand_shapes):
            extent_of.update(zip(sub, shape))

        self.backwards: dict[int, _OperandGrad] = {}
        for position, (kind, _) in enumerate(self.operands):
            if kind == "ones":
                continue  # constants need no gradient
            target_sub = operand_subs[position]
            other_positions = tuple(
                index for index in range(len(self.operands)) if index != position
            )
            other_subs = [operand_subs[index] for index in other_positions]
            available = set(output_sub).union(*other_subs) if other_subs else set(output_sub)
            missing = [c for c in target_sub if c not in available]
            reduced_target = "".join(c for c in target_sub if c not in missing)
            subscripts = ",".join([output_sub, *other_subs]) + "->" + reduced_target
            path = np.einsum_path(
                subscripts,
                _dummy(output_shape),
                *[_dummy(operand_shapes[index]) for index in other_positions],
                optimize="optimal",
            )[0]
            expand_shape = (
                tuple(1 if c in missing else extent_of[c] for c in target_sub)
                if missing
                else None
            )
            self.backwards[position] = _OperandGrad(
                subscripts, path, other_positions, expand_shape, operand_shapes[position]
            )

    def _arrays(self, value: np.ndarray, weights: Sequence[np.ndarray]) -> list[np.ndarray]:
        arrays: list[np.ndarray] = []
        for kind, payload in self.operands:
            if kind == "value":
                arrays.append(value)
            elif kind == "weight":
                arrays.append(weights[payload])
            else:  # ones: dtype follows the value so nothing silently upcasts
                arrays.append(np.ones(payload, dtype=value.dtype))
        return arrays

    def run(self, value: np.ndarray, weights: Sequence[np.ndarray]) -> np.ndarray:
        return np.einsum(self.subscripts, *self._arrays(value, weights), optimize=self.path)

    def _grad_for(self, position: int, g: np.ndarray, arrays: list[np.ndarray]) -> np.ndarray:
        recipe = self.backwards[position]
        others = [arrays[index] for index in recipe.other_positions]
        grad = np.einsum(recipe.subscripts, g, *others, optimize=recipe.path)
        if recipe.expand_shape is not None:
            grad = np.broadcast_to(grad.reshape(recipe.expand_shape), recipe.full_shape)
        return grad

    def backward(
        self, g: np.ndarray, value: np.ndarray, weights: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """``(grad_value, {weight_index: grad_weight})`` for this step."""
        arrays = self._arrays(value, weights)
        weight_grads: dict[int, np.ndarray] = {}
        grad_value: np.ndarray | None = None
        for position in self.backwards:
            grad = self._grad_for(position, g, arrays)
            kind, payload = self.operands[position]
            if kind == "value":
                grad_value = grad
            else:
                weight_grads[payload] = grad
        assert grad_value is not None
        return grad_value, weight_grads

    def backward_weights_only(
        self, g: np.ndarray, value: np.ndarray, weights: Sequence[np.ndarray]
    ) -> dict[int, np.ndarray]:
        """Weight gradients alone (the input below needs no gradient)."""
        arrays = self._arrays(value, weights)
        return {
            payload: self._grad_for(position, g, arrays)
            for position, (kind, payload) in enumerate(self.operands)
            if kind == "weight"
        }

    def __repr__(self) -> str:
        tags = [
            "x" if kind == "value" else (f"w{payload}" if kind == "weight" else f"1({payload})")
            for kind, payload in self.operands
        ]
        return f"Contract({self.subscripts}; {','.join(tags)})"


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------


class ExecutionPlan:
    """A flat, pre-resolved program computing one operator for one binding."""

    __slots__ = ("steps", "input_shape", "output_shape", "weight_count", "_first_contraction")

    def __init__(
        self,
        steps: list,
        input_shape: tuple[int, ...],
        output_shape: tuple[int, ...],
        weight_count: int,
    ) -> None:
        self.steps = steps
        self.input_shape = input_shape
        self.output_shape = output_shape
        self.weight_count = weight_count
        contraction_indices = [
            index for index, step in enumerate(steps) if isinstance(step, ContractionStep)
        ]
        self._first_contraction = contraction_indices[0] if contraction_indices else None

    def run_forward(
        self,
        x: np.ndarray,
        weights: Sequence[np.ndarray],
        save_for_backward: bool = False,
    ) -> tuple[np.ndarray, list | None]:
        """Execute the plan; optionally save the contraction inputs for backward."""
        saved: list | None = [None] * len(self.steps) if save_for_backward else None
        value = x
        for index, step in enumerate(self.steps):
            if isinstance(step, ContractionStep):
                if saved is not None:
                    saved[index] = value
                value = step.run(value, weights)
            else:
                value = step.run(value)
        return value, saved

    def run_backward(
        self,
        grad_output: np.ndarray,
        saved: list,
        weights: Sequence[np.ndarray],
        need_input_grad: bool = True,
    ) -> tuple[np.ndarray | None, dict[int, np.ndarray]]:
        """Gradients of a scalar loss w.r.t. the input and every weight.

        With ``need_input_grad=False`` (the input is raw data, not an
        activation) the walk stops at the first contraction: everything below
        is pure data movement with no parameters, so the expensive
        gradient-through-the-value einsum is skipped and ``None`` is returned
        in the input-gradient slot.
        """
        grad = grad_output
        weight_grads: dict[int, np.ndarray] = {}
        for index in range(len(self.steps) - 1, -1, -1):
            step = self.steps[index]
            if isinstance(step, ContractionStep):
                if not need_input_grad and index == self._first_contraction:
                    for weight_index, contribution in step.backward_weights_only(
                        grad, saved[index], weights
                    ).items():
                        existing = weight_grads.get(weight_index)
                        weight_grads[weight_index] = (
                            contribution if existing is None else existing + contribution
                        )
                    return None, weight_grads
                grad, step_weight_grads = step.backward(grad, saved[index], weights)
                for weight_index, contribution in step_weight_grads.items():
                    existing = weight_grads.get(weight_index)
                    weight_grads[weight_index] = (
                        contribution if existing is None else existing + contribution
                    )
            else:
                if not need_input_grad and (
                    self._first_contraction is None or index < self._first_contraction
                ):
                    # Only view steps remain below: no parameters, no grads.
                    return None, weight_grads
                grad = step.grad(grad)
        return grad if need_input_grad else None, weight_grads

    def describe(self) -> str:
        """One line per step — the compiled program, for debugging and docs."""
        lines = [f"ExecutionPlan {self.input_shape} -> {self.output_shape}"]
        lines.extend(f"  {index:2d}: {step!r}" for index, step in enumerate(self.steps))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan(steps={len(self.steps)}, weights={self.weight_count}, "
            f"{self.input_shape}->{self.output_shape})"
        )


# ---------------------------------------------------------------------------
# Step fusion
# ---------------------------------------------------------------------------


def _fuse_steps(steps: list) -> list:
    """Drop identity view steps and merge adjacent transposes / reshapes."""
    changed = True
    while changed:
        changed = False
        fused: list = []
        for step in steps:
            previous = fused[-1] if fused else None
            if isinstance(step, TransposeStep) and step.order == tuple(range(len(step.order))):
                changed = True
                continue
            if isinstance(step, ReshapeStep) and step.shape == step.input_shape:
                changed = True
                continue
            if isinstance(step, TransposeStep) and isinstance(previous, TransposeStep):
                fused[-1] = TransposeStep(tuple(previous.order[i] for i in step.order))
                changed = True
                continue
            if isinstance(step, ReshapeStep) and isinstance(previous, ReshapeStep):
                fused[-1] = ReshapeStep(step.shape, previous.input_shape)
                changed = True
                continue
            fused.append(step)
        steps = fused
    return steps


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class _ContractionGroup:
    """Accumulates a run of Share/Expand/Reduce into one fused einsum.

    ``labels`` maps dim uid -> subscript letter for every dim the group has
    seen; the value operand's subscript is fixed when the group opens, weight
    and ones operands accumulate, and reductions simply drop axes from the
    live set — the output subscript is read off the live axes at flush time.
    """

    def __init__(self, axes: Sequence[Dim], shape: Sequence[int]) -> None:
        self._letters = iter(string.ascii_letters)
        self.labels: dict[int, str] = {}
        self.value_sub = "".join(self.label_for(dim) for dim in axes)
        self.value_shape = tuple(shape)
        self.operand_subs: list[str] = [self.value_sub]
        self.operand_specs: list[tuple[str, int | None]] = [("value", None)]
        self.operand_shapes: list[tuple[int, ...]] = [self.value_shape]
        self.has_share = False
        #: plain steps to emit instead when the group never sees a Share.
        self.fallback: list = []

    def label_for(self, dim: Dim) -> str:
        if dim.uid not in self.labels:
            try:
                self.labels[dim.uid] = next(self._letters)
            except StopIteration:  # pragma: no cover - >52 axes in one group
                raise PlanError("contraction group exceeds the einsum label alphabet")
        return self.labels[dim.uid]

    def add_operand(self, kind: str, payload, sub: str, shape: tuple[int, ...]) -> None:
        self.operand_subs.append(sub)
        self.operand_specs.append((kind, payload))
        self.operand_shapes.append(shape)


class _PlanBuilder:
    """Walks the lowering trace once, tracking (axes, concrete shape)."""

    def __init__(self, operator: SynthesizedOperator, binding: Mapping[Variable, int]) -> None:
        self.operator = operator
        self.binding = dict(binding)
        self.graph = operator.graph
        self.steps: list = []
        self.axes: list[Dim] = [
            self.graph.frontier[index] for index in operator.input_assignment
        ]
        self.shape: list[int] = [self._extent(dim) for dim in self.axes]
        self._multiplied: set[int] = set()
        self._group: _ContractionGroup | None = None

    def _extent(self, dim: Dim) -> int:
        return dim.size.evaluate(self.binding)

    def _axis_of(self, dim: Dim) -> int:
        try:
            return self.axes.index(dim)
        except ValueError as exc:
            raise PlanError(f"dim {dim!r} is not a live axis") from exc

    def build(self) -> ExecutionPlan:
        input_shape = tuple(self.shape)
        for app in reversed(self.graph.applications):
            primitive = app.primitive
            if isinstance(primitive, Share):
                self._share(app)
            elif isinstance(primitive, Reduce):
                self._reduce(app)
            elif isinstance(primitive, Expand):
                self._expand(app)
            else:
                # Data-movement primitives close the running contraction group.
                self._flush_group()
                if isinstance(primitive, Merge):
                    self._merge(app)
                elif isinstance(primitive, Split):
                    self._split(app)
                elif isinstance(primitive, Shift):
                    self._shift(app, primitive.amount)
                elif isinstance(primitive, Unfold):
                    self._unfold(app)
                elif isinstance(primitive, Stride):
                    self._stride(app, primitive)
                else:  # pragma: no cover - defensive
                    raise PlanError(f"unknown primitive {primitive!r}")
        self._flush_group()

        output_positions = []
        for dim in self.graph.output_dims:
            if dim not in self.axes:
                raise PlanError(f"output dim {dim!r} missing after lowering")
            output_positions.append(self.axes.index(dim))
        if len(self.axes) != len(self.graph.output_dims):
            extra = [d for d in self.axes if d not in self.graph.output_dims]
            raise PlanError(f"unexpected residual axes {extra!r}")
        self._emit_transpose(output_positions)
        return ExecutionPlan(
            _fuse_steps(self.steps),
            input_shape,
            tuple(self.shape),
            len(self.graph.weights),
        )

    # -- contraction-group handling -----------------------------------------

    def _ensure_group(self) -> _ContractionGroup:
        if self._group is None:
            self._group = _ContractionGroup(self.axes, self.shape)
        return self._group

    def _flush_group(self) -> None:
        group, self._group = self._group, None
        if group is None:
            return
        if not group.has_share:
            self.steps.extend(group.fallback)
            return
        output_sub = "".join(group.labels[dim.uid] for dim in self.axes)
        self.steps.append(
            ContractionStep(
                group.operand_subs,
                group.operand_specs,
                group.operand_shapes,
                output_sub,
                tuple(self.shape),
            )
        )

    # -- emission helpers ---------------------------------------------------

    def _emit_transpose(self, order: list[int]) -> None:
        self.steps.append(TransposeStep(tuple(order)))
        self.axes = [self.axes[i] for i in order]
        self.shape = [self.shape[i] for i in order]

    def _emit_reshape(self, shape: list[int]) -> None:
        self.steps.append(ReshapeStep(tuple(shape), tuple(self.shape)))
        self.shape = list(shape)

    # -- per-primitive compilation (mirrors codegen.eager exactly) ----------

    def _merge(self, app) -> None:
        (bottom,) = app.consumed
        outer, inner = app.produced
        outer_axis = self._axis_of(outer)
        inner_axis = self._axis_of(inner)
        order = list(range(len(self.axes)))
        order.remove(inner_axis)
        insert_at = order.index(outer_axis) + 1
        order.insert(insert_at, inner_axis)
        self._emit_transpose(order)
        outer_axis = self.axes.index(outer)
        new_shape = list(self.shape)
        new_shape[outer_axis : outer_axis + 2] = [self._extent(bottom)]
        self._emit_reshape(new_shape)
        self.axes = self.axes[:outer_axis] + [bottom] + self.axes[outer_axis + 2 :]

    def _split(self, app) -> None:
        major, minor = app.consumed
        (top,) = app.produced
        axis = self._axis_of(top)
        new_shape = list(self.shape)
        new_shape[axis : axis + 1] = [self._extent(major), self._extent(minor)]
        self._emit_reshape(new_shape)
        self.axes = self.axes[:axis] + [major, minor] + self.axes[axis + 1 :]

    def _shift(self, app, amount: int) -> None:
        (bottom,) = app.consumed
        (top,) = app.produced
        axis = self._axis_of(top)
        self.steps.append(RollStep(-amount, axis))
        self.axes = list(self.axes)
        self.axes[axis] = bottom

    def _expand(self, app) -> None:
        (bottom,) = app.consumed
        extent = self._extent(bottom)
        group = self._ensure_group()
        self.axes = list(self.axes) + [bottom]
        self.shape = list(self.shape) + [extent]
        group.add_operand("ones", extent, group.label_for(bottom), (extent,))
        group.fallback.append(BroadcastStep(tuple(self.shape)))

    def _unfold(self, app) -> None:
        main, window = app.consumed
        (top,) = app.produced
        axis = self._axis_of(top)
        window_extent = self._extent(window)
        self.steps.append(UnfoldStep(axis, window_extent, tuple(self.shape)))
        self.axes = list(self.axes)
        self.axes[axis] = main
        self.axes.append(window)
        self.shape = list(self.shape) + [window_extent]

    def _stride(self, app, primitive: Stride) -> None:
        (bottom,) = app.consumed
        (top,) = app.produced
        axis = self._axis_of(top)
        step = primitive.stride.evaluate(self.binding)
        self.steps.append(StrideSliceStep(axis, step, tuple(self.shape)))
        self.axes = list(self.axes)
        self.axes[axis] = bottom
        self.shape = list(self.shape)
        self.shape[axis] = self._extent(bottom)

    def _reduce(self, app) -> None:
        (produced,) = app.produced
        axis = self._axis_of(produced)
        group = self._ensure_group()
        group.label_for(self.axes[axis])  # ensure the reduced axis is labelled
        group.fallback.append(SumStep(axis, tuple(self.shape)))
        self.axes = self.axes[:axis] + self.axes[axis + 1 :]
        self.shape = self.shape[:axis] + self.shape[axis + 1 :]

    def _share(self, app) -> None:
        weight_index = app.weight_index
        assert weight_index is not None
        if weight_index in self._multiplied:
            # Already multiplied at the last Share of its group.
            return
        self._multiplied.add(weight_index)

        weight = self.graph.weights[weight_index]
        group = self._ensure_group()
        group.has_share = True
        weight_sub = ""
        new_axes: list[Dim] = []
        for wdim in weight.dims:
            target = wdim.identified_with
            if target is None:  # pragma: no cover - defensive
                raise PlanError(f"weight dim {wdim!r} has no identified coordinate")
            weight_sub += group.label_for(target)
            if target not in self.axes and target not in new_axes:
                new_axes.append(target)
        weight_shape = tuple(self._extent(dim) for dim in weight.dims)
        group.add_operand("weight", weight_index, weight_sub, weight_shape)
        self.axes = list(self.axes) + new_axes
        self.shape = list(self.shape) + [self._extent(dim) for dim in new_axes]


def compile_plan(
    operator: SynthesizedOperator, binding: Mapping[Variable, int]
) -> ExecutionPlan:
    """Compile one operator for one concrete binding into an execution plan."""
    return _PlanBuilder(operator, binding).build()


# ---------------------------------------------------------------------------
# Process-wide memoization
# ---------------------------------------------------------------------------


def plan_cache_key(operator: SynthesizedOperator, binding: Mapping[Variable, int]) -> tuple:
    """The memoization key: structure plus every concrete extent.

    The canonical signature fixes the application structure; the binding and
    the concrete input/output/weight shapes pin every extent the plan bakes
    in, so structurally identical (graph, binding) pairs share one plan and
    nothing else ever aliases one.
    """
    return (
        operator.graph.signature(),
        operator.input_assignment,
        tuple(sorted((variable.name, int(value)) for variable, value in binding.items())),
        tuple(operator.concrete_input_shape(binding)),
        tuple(operator.concrete_output_shape(binding)),
        tuple(operator.weight_shapes(binding)),
    )


def cached_plan(operator: SynthesizedOperator, binding: Mapping[Variable, int]) -> ExecutionPlan:
    """The compiled plan for ``(operator, binding)``, memoized in the ambient
    context's plan cache.

    Under ``RuntimeConfig.verify_plans`` every freshly compiled plan is
    statically verified (:func:`repro.analysis.plan_verifier.verify_plan`)
    before it enters the cache — verification happens once per memoized plan,
    never per forward call, so the knob is safe to leave on in tests and CI.
    """
    context = current()

    def compute() -> ExecutionPlan:
        plan = compile_plan(operator, binding)
        if context.config.verify_plans:
            from repro.analysis.plan_verifier import verify_plan

            verify_plan(plan)
        return plan

    return context.cached_plan(plan_cache_key(operator, binding), compute)
