"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Every operation returns a new :class:`Tensor` holding the computed value and,
while gradient recording is enabled, a closure that scatters the output
gradient back to its parents.  ``backward(root)`` runs an iterative
topological sort (graphs are deep for long sentences, so no recursion) and
accumulates ``.grad`` on every node, leaves included.

The op set is deliberately small: exactly what an attentional encoder-decoder
with a lexicon-biased softmax needs.  All values are float64; callers get
bit-reproducible results for a fixed op sequence.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """A node in the computation graph wrapping an ndarray (or 0-d scalar)."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        if _grad_enabled:
            self._parents = parents
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def _accum(t: Tensor, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.value)
    t.grad += g


def backward(root: Tensor):
    """Backpropagate from a scalar root, accumulating ``.grad`` on all nodes."""
    if root.value.shape != ():
        raise ValueError("backward() requires a scalar root")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones(())
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise / arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.value + b.value, (a, b))
    if out._parents:
        def bwd(g):
            _accum(a, g)
            _accum(b, g)
        out._backward = bwd
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.value * b.value, (a, b))
    if out._parents:
        def bwd(g):
            _accum(a, g * b.value)
            _accum(b, g * a.value)
        out._backward = bwd
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.value * s, (a,))
    if out._parents:
        out._backward = lambda g: _accum(a, g * s)
    return out


def one_minus(a: Tensor) -> Tensor:
    out = Tensor(1.0 - a.value, (a,))
    if out._parents:
        out._backward = lambda g: _accum(a, -g)
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.value)
    out = Tensor(y, (a,))
    if out._parents:
        out._backward = lambda g: _accum(a, g * (1.0 - y * y))
    return out


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.value))
    out = Tensor(y, (a,))
    if out._parents:
        out._backward = lambda g: _accum(a, g * y * (1.0 - y))
    return out


def log_add_eps(a: Tensor, eps: float) -> Tensor:
    """log(a + eps), used for the lexicon bias term; requires a + eps > 0."""
    shifted = a.value + eps
    out = Tensor(np.log(shifted), (a,))
    if out._parents:
        out._backward = lambda g: _accum(a, g / shifted)
    return out


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matvec(W: Tensor, x: Tensor) -> Tensor:
    """W @ x for a matrix W (m, n) and vector x (n,)."""
    out = Tensor(W.value @ x.value, (W, x))
    if out._parents:
        def bwd(g):
            _accum(W, np.outer(g, x.value))
            _accum(x, W.value.T @ g)
        out._backward = bwd
    return out


def matTvec(M: Tensor, v: Tensor) -> Tensor:
    """M.T @ v for M (m, n) and v (m,) -> (n,)."""
    out = Tensor(M.value.T @ v.value, (M, v))
    if out._parents:
        def bwd(g):
            _accum(M, np.outer(v.value, g))
            _accum(v, M.value @ g)
        out._backward = bwd
    return out


def matmat(A: Tensor, B: Tensor) -> Tensor:
    out = Tensor(A.value @ B.value, (A, B))
    if out._parents:
        def bwd(g):
            _accum(A, g @ B.value.T)
            _accum(B, A.value.T @ g)
        out._backward = bwd
    return out


def const_matvec(L: np.ndarray, a: Tensor) -> Tensor:
    """L @ a for a constant dense matrix L that receives no gradient."""
    out = Tensor(L @ a.value, (a,))
    if out._parents:
        out._backward = lambda g: _accum(a, L.T @ g)
    return out


def addcol(M: Tensor, v: Tensor) -> Tensor:
    """Add vector v to every column of matrix M."""
    out = Tensor(M.value + v.value[:, None], (M, v))
    if out._parents:
        def bwd(g):
            _accum(M, g)
            _accum(v, g.sum(axis=1))
        out._backward = bwd
    return out


def cols_slice(M: Tensor, start: int, stop: int) -> Tensor:
    """Column slice M[:, start:stop] with scatter-add backward."""
    out = Tensor(M.value[:, start:stop].copy(), (M,))
    if out._parents:
        def bwd(g):
            if M.grad is None:
                M.grad = np.zeros_like(M.value)
            M.grad[:, start:stop] += g
        out._backward = bwd
    return out


def vec_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice x[start:stop] of a 1-D tensor with scatter-add backward."""
    out = Tensor(x.value[start:stop].copy(), (x,))
    if out._parents:
        def bwd(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            x.grad[start:stop] += g
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# shape assembly
# ---------------------------------------------------------------------------

def concat(parts) -> Tensor:
    parts = list(parts)
    out = Tensor(np.concatenate([p.value for p in parts]), tuple(parts))
    if out._parents:
        sizes = [p.value.shape[0] for p in parts]
        def bwd(g):
            ofs = 0
            for p, n in zip(parts, sizes):
                _accum(p, g[ofs:ofs + n])
                ofs += n
        out._backward = bwd
    return out


def stack_cols(vectors) -> Tensor:
    """Stack 1-D tensors as the columns of a matrix."""
    vectors = list(vectors)
    out = Tensor(np.stack([v.value for v in vectors], axis=1), tuple(vectors))
    if out._parents:
        def bwd(g):
            for j, v in enumerate(vectors):
                _accum(v, g[:, j])
        out._backward = bwd
    return out


def stack_scalars(scalars) -> Tensor:
    scalars = list(scalars)
    out = Tensor(np.array([s.value for s in scalars]), tuple(scalars))
    if out._parents:
        def bwd(g):
            for j, s in enumerate(scalars):
                _accum(s, g[j])
        out._backward = bwd
    return out


def row(M: Tensor, i: int) -> Tensor:
    """Row lookup M[i], the embedding access pattern."""
    out = Tensor(M.value[i].copy(), (M,))
    if out._parents:
        def bwd(g):
            if M.grad is None:
                M.grad = np.zeros_like(M.value)
            M.grad[i] += g
        out._backward = bwd
    return out


def pick(x: Tensor, i: int) -> Tensor:
    """Scalar element x[i]."""
    out = Tensor(x.value[i], (x,))
    if out._parents:
        def bwd(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            x.grad[i] += g
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# reductions / softmax
# ---------------------------------------------------------------------------

def sumall(x: Tensor) -> Tensor:
    out = Tensor(x.value.sum(), (x,))
    if out._parents:
        out._backward = lambda g: _accum(x, np.full_like(x.value, g))
    return out


def dotprod(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.value @ b.value, (a, b))
    if out._parents:
        def bwd(g):
            _accum(a, g * b.value)
            _accum(b, g * a.value)
        out._backward = bwd
    return out


def softmax_vec(x: Tensor) -> Tensor:
    """Numerically stable softmax of a 1-D tensor."""
    z = x.value - x.value.max()
    e = np.exp(z)
    y = e / e.sum()
    out = Tensor(y, (x,))
    if out._parents:
        out._backward = lambda g: _accum(x, y * (g - g @ y))
    return out


def log_softmax_vec(x: Tensor) -> Tensor:
    m = x.value.max()
    z = x.value - m
    lse = m + np.log(np.exp(z).sum())
    y = x.value - lse
    out = Tensor(y, (x,))
    if out._parents:
        sm = np.exp(y)
        out._backward = lambda g: _accum(x, g - sm * g.sum())
    return out
