"""Finite-difference and structural checks for the reverse-mode core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexnmt import autodiff as ad


def fd_grads(build, arrays, h=1e-6):
    """Analytic and central-difference gradients of a scalar-valued build()."""
    ts = [ad.Tensor(a.copy()) for a in arrays]
    loss = build(*ts)
    ad.backward(loss)
    analytic = [np.zeros_like(a) if t.grad is None else np.array(t.grad)
                for a, t in zip(arrays, ts)]
    numeric = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = float(build(*[ad.Tensor(x) for x in arrays]).value)
            flat[j] = orig - h
            down = float(build(*[ad.Tensor(x) for x in arrays]).value)
            flat[j] = orig
            gf[j] = (up - down) / (2 * h)
        numeric.append(g)
    return analytic, numeric


def as_scalar(out, rng):
    """Contract an output tensor with fixed constants to get a scalar."""
    if out.value.ndim == 0:
        return out
    if out.value.ndim == 1:
        w = ad.Tensor(rng.normal(size=out.value.shape))
        return ad.dotprod(out, w)
    u = ad.Tensor(rng.normal(size=out.value.shape[1]))
    w = ad.Tensor(rng.normal(size=out.value.shape[0]))
    return ad.dotprod(ad.matvec(out, u), w)


RNG = np.random.default_rng(8)
L_CONST = np.abs(RNG.normal(size=(6, 4))) * 0.2

CASES = {
    "add": (lambda a, b: ad.add(a, b), [(5,), (5,)]),
    "sub": (lambda a, b: ad.sub(a, b), [(5,), (5,)]),
    "mul": (lambda a, b: ad.mul(a, b), [(5,), (5,)]),
    "scale": (lambda a: ad.scale(a, -1.7), [(5,)]),
    "one_minus": (lambda a: ad.one_minus(a), [(5,)]),
    "tanh": (lambda a: ad.tanh(a), [(5,)]),
    "sigmoid": (lambda a: ad.sigmoid(a), [(5,)]),
    "log_add_eps": (lambda a: ad.log_add_eps(ad.sigmoid(a), 1e-3), [(5,)]),
    "matvec": (lambda W, x: ad.matvec(W, x), [(4, 5), (5,)]),
    "matTvec": (lambda M, v: ad.matTvec(M, v), [(4, 5), (4,)]),
    "matmat": (lambda A, B: ad.matmat(A, B), [(3, 4), (4, 5)]),
    "const_matvec": (lambda a: ad.const_matvec(L_CONST, a), [(4,)]),
    "addcol": (lambda M, v: ad.addcol(M, v), [(4, 5), (4,)]),
    "cols_slice": (lambda M: ad.cols_slice(M, 1, 4), [(4, 6)]),
    "vec_slice": (lambda x: ad.vec_slice(x, 2, 5), [(7,)]),
    "concat": (lambda a, b, c: ad.concat([a, b, c]), [(2,), (3,), (4,)]),
    "stack_cols": (lambda a, b, c: ad.stack_cols([a, b, c]), [(4,), (4,), (4,)]),
    "stack_scalars": (lambda a, b: ad.stack_scalars(
        [ad.pick(a, 0), ad.pick(b, 1), ad.pick(a, 2)]), [(3,), (3,)]),
    "row": (lambda M: ad.row(M, 2), [(4, 5)]),
    "pick": (lambda x: ad.pick(x, 3), [(5,)]),
    "sumall": (lambda x: ad.sumall(x), [(6,)]),
    "dotprod": (lambda a, b: ad.dotprod(a, b), [(5,), (5,)]),
    "softmax": (lambda x: ad.softmax_vec(x), [(5,)]),
    "log_softmax": (lambda x: ad.log_softmax_vec(x), [(5,)]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_op_gradients_match_finite_differences(name):
    op, shapes = CASES[name]
    rng = np.random.default_rng(hash(name) % (1 << 31))
    arrays = [rng.normal(size=s) * 0.8 for s in shapes]
    build = lambda *ts: as_scalar(op(*ts), np.random.default_rng(17))
    analytic, numeric = fd_grads(build, arrays)
    for ana, num in zip(analytic, numeric):
        assert np.allclose(ana, num, rtol=1e-5, atol=1e-7), name


def test_shared_subgraph_accumulates():
    x = ad.Tensor(np.array([1.5, -0.5, 2.0]))
    # x feeds two branches: d/dx sum(x*x + 3x) = 2x + 3
    loss = ad.sumall(ad.add(ad.mul(x, x), ad.scale(x, 3.0)))
    ad.backward(loss)
    assert np.allclose(x.grad, 2 * x.value + 3)


def test_diamond_graph_single_visit():
    x = ad.Tensor(np.array([0.3, 0.7]))
    y = ad.tanh(x)
    # y reused twice; gradient must be 2 * (1 - tanh^2)
    loss = ad.sumall(ad.add(y, y))
    ad.backward(loss)
    assert np.allclose(x.grad, 2 * (1 - np.tanh(x.value) ** 2))


def test_backward_requires_scalar_root():
    x = ad.Tensor(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(ad.add(x, x))


def test_no_grad_builds_no_graph():
    assert ad.grad_enabled()
    with ad.no_grad():
        assert not ad.grad_enabled()
        x = ad.Tensor(np.ones(3))
        y = ad.mul(x, x)
        assert y._parents == ()
        assert y._backward is None
    assert ad.grad_enabled()


def test_no_grad_nests_and_restores_on_error():
    with ad.no_grad():
        with ad.no_grad():
            assert not ad.grad_enabled()
        assert not ad.grad_enabled()
    try:
        with ad.no_grad():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert ad.grad_enabled()


def test_softmax_outputs_normalized():
    x = ad.Tensor(np.array([3.0, -1.0, 0.5, 900.0]))
    p = ad.softmax_vec(x)
    assert np.isfinite(p.value).all()
    assert abs(p.value.sum() - 1.0) < 1e-12
    # log_softmax stays finite where plain softmax underflows to zero
    lp = ad.log_softmax_vec(x).value
    z = x.value - x.value.max()
    assert np.allclose(lp, z - np.log(np.exp(z).sum()), atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    x = ad.Tensor(np.array([0.3, -1.2, 0.9, 0.0]))
    p = ad.softmax_vec(x).value
    lp = ad.log_softmax_vec(x).value
    assert np.allclose(lp, np.log(p), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8),
       st.floats(min_value=-50, max_value=50))
def test_softmax_shift_invariance(values, shift):
    x = np.array(values)
    a = ad.softmax_vec(ad.Tensor(x)).value
    b = ad.softmax_vec(ad.Tensor(x + shift)).value
    assert np.allclose(a, b, atol=1e-12)
    assert abs(a.sum() - 1.0) < 1e-12


def test_pick_and_row_are_one_hot():
    M = ad.Tensor(np.arange(12.0).reshape(3, 4))
    r = ad.row(M, 1)
    loss = ad.pick(r, 2)
    ad.backward(loss)
    expect = np.zeros((3, 4))
    expect[1, 2] = 1.0
    assert np.array_equal(M.grad, expect)
