"""A reverse-mode autograd tensor over numpy arrays.

This is the training substrate that stands in for PyTorch: every operator
substituted into a backbone model must be differentiable so the model can be
trained end-to-end, which is exactly the "high quality" property the paper's
primitives guarantee.  The engine is a classic define-by-run tape: each
operation records, on its output, the parent tensors and a vector-Jacobian
product (VJP) closure per parent; ``Tensor.backward`` topologically sorts the
tape and accumulates gradients.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

# The runtime package is import-light (stdlib only), so binding its resolver
# at module scope costs nothing and avoids a memoized-global rebind.
from repro.runtime import current as _current_runtime

_GRAD_ENABLED = True


def compute_dtype() -> np.dtype:
    """The numpy dtype every tensor allocation uses.

    Resolved per call from the ambient :class:`repro.runtime.RuntimeContext`
    (``RuntimeConfig.dtype``: float32 under smoke, float64 otherwise; the
    ``REPRO_DTYPE`` variable remains the edge-of-process fallback).  Because
    activation is per-thread, two concurrently active contexts with different
    dtypes each get their own allocations.
    """
    return np.dtype(_current_runtime().config.dtype_name())


@contextlib.contextmanager
def no_grad():
    """Disable gradient recording within the context (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=compute_dtype())
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._parents: list[tuple["Tensor", Callable[[np.ndarray], np.ndarray]]] = []
        self.name = name

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def zeros(shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(shape: Sequence[int], scale: float = 1.0, rng: np.random.Generator | None = None,
              requires_grad: bool = False) -> "Tensor":
        if rng is None:
            rng = _current_runtime().param_rng
        return Tensor(rng.normal(0.0, scale, size=tuple(shape)), requires_grad=requires_grad)

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Iterable[tuple["Tensor", Callable[[np.ndarray], np.ndarray]]],
    ) -> "Tensor":
        """Create an op output, recording parents only if gradients are enabled."""
        if not _GRAD_ENABLED:
            # Inference fast path: no closure-list materialization, no
            # requires_grad scan — the parents iterable is never consumed.
            return Tensor(data)
        parents = list(parents)
        requires_grad = any(p.requires_grad for p, _ in parents)
        out = Tensor(data, requires_grad=requires_grad)
        if requires_grad:
            out._parents = [(p, fn) for p, fn in parents if p.requires_grad]
        return out

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autograd ------------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded tape."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order of the tape reachable from self.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and not node._parents:
                # Leaf tensor: accumulate into .grad.
                node.grad = node_grad if node.grad is None else node.grad + node_grad
            for parent, vjp in node._parents:
                contribution = vjp(node_grad)
                existing = grads.get(id(parent))
                grads[id(parent)] = contribution if existing is None else existing + contribution
            if node.requires_grad and node._parents and node.grad is not None:
                # Non-leaf with retained grad (rare); keep accumulating.
                node.grad = node.grad + node_grad

    # -- arithmetic (delegating to functional) -------------------------------

    def __add__(self, other):
        from repro.nn import functional as F

        return F.add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        from repro.nn import functional as F

        return F.mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        from repro.nn import functional as F

        return F.sub(self, other)

    def __rsub__(self, other):
        from repro.nn import functional as F

        return F.sub(other, self)

    def __truediv__(self, other):
        from repro.nn import functional as F

        return F.div(self, other)

    def __rtruediv__(self, other):
        from repro.nn import functional as F

        return F.div(other, self)

    def __neg__(self):
        from repro.nn import functional as F

        return F.mul(self, -1.0)

    def __pow__(self, exponent: float):
        from repro.nn import functional as F

        return F.power(self, exponent)

    def __matmul__(self, other):
        from repro.nn import functional as F

        return F.matmul(self, other)

    def __getitem__(self, index):
        from repro.nn import functional as F

        return F.getitem(self, index)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        from repro.nn import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def transpose(self, *axes):
        from repro.nn import functional as F

        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return F.transpose(self, axes or None)

    def sum(self, axis=None, keepdims=False):
        from repro.nn import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        from repro.nn import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        from repro.nn import functional as F

        return F.max(self, axis=axis, keepdims=keepdims)

    def exp(self):
        from repro.nn import functional as F

        return F.exp(self)

    def log(self):
        from repro.nn import functional as F

        return F.log(self)

    def sqrt(self):
        from repro.nn import functional as F

        return F.sqrt(self)

    def relu(self):
        from repro.nn import functional as F

        return F.relu(self)


def as_tensor(value) -> Tensor:
    """Coerce numpy arrays / scalars into (constant) tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
