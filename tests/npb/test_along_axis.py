"""The transpose-free axis operator of FT and LU, bit for bit.

``repro.npb.common.along_axis`` replaced FT's and LU's
``moveaxis`` -> ``reshape`` -> ``matmul`` -> ``reshape`` -> ``moveaxis``
copies.  ``transposing_along_axis`` below is that old form, kept as the
reference: every output, gradient and mask of the two ports must be the
same bits with either one.

OpenBLAS does not promise one summation order across GEMM shapes.  With
the OpenBLAS 0.3.31 Haswell kernels the two forms agree when the
contraction is shorter than 16 or the other extents are multiples of 8 --
FT's and LU's shapes, and the synthetic ones below -- and differ for
MG's (see ``MG._axis_map``).  The port-level tests pin what matters.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

import repro.npb.ft as ft_module
import repro.npb.lu as lu_module
from repro.ad import ops
from repro.ad.dual import TangentArray
from repro.ad.plan import PlanCache
from repro.ad.probes import probe_axis, segmented_batched_gradients
from repro.ad.reverse import backward
from repro.ad.segmented import segmented_gradients
from repro.ad.tape import Tape
from repro.core.analysis import scrutinize
from repro.npb import registry
from repro.npb.base import concrete_state
from repro.npb.common import along_axis


def transposing_along_axis(matrix: np.ndarray, field, axis: int):
    """The axis operator as FT and LU computed it before ``along_axis``."""
    moved = ops.moveaxis(field, axis, 0)
    rest_shape = tuple(ops.logical_shape(moved)[1:])
    rest = int(np.prod(rest_shape)) if rest_shape else 1
    flat = ops.reshape(moved, (matrix.shape[1], rest))
    mixed = ops.matmul(matrix, flat)
    return ops.moveaxis(ops.reshape(mixed, (matrix.shape[0],) + rest_shape),
                        0, axis)


def _bits(value) -> bytes:
    return np.ascontiguousarray(np.asarray(value, dtype=np.float64)).tobytes()


def _assert_same(expected, got, label: str) -> None:
    if isinstance(expected, dict):
        assert set(expected) == set(got), label
        for key in expected:
            _assert_same(expected[key], got[key], f"{label}[{key}]")
        return
    a, b = np.asarray(expected), np.asarray(got)
    assert a.shape == b.shape, label
    assert _bits(a) == _bits(b), f"{label}: bits differ"


def _both(monkeypatch, compute):
    """``compute()`` with the reference operator, then with ``along_axis``."""
    monkeypatch.setattr(ft_module, "along_axis", transposing_along_axis)
    monkeypatch.setattr(lu_module, "along_axis", transposing_along_axis)
    reference = compute()
    monkeypatch.undo()
    return reference, compute()


PORTS = [("FT", "T"), ("FT", "S"), ("FT", "A"), ("LU", "T"), ("LU", "S")]
GRADIENT_PORTS = [("FT", "T"), ("FT", "S"), ("LU", "T"), ("LU", "S")]


@pytest.mark.parametrize("name,problem_class", PORTS)
def test_run_full_is_bitwise_unchanged(monkeypatch, name, problem_class):
    ref, got = _both(monkeypatch, lambda: concrete_state(
        registry.create(name, problem_class).run_full()))
    _assert_same(ref, got, f"{name}-{problem_class} final state")


def _late_state(bench, back: int = 2):
    return bench.checkpoint_state(max(bench.total_steps - back, 0))


@pytest.mark.parametrize("name,problem_class", GRADIENT_PORTS)
def test_monolithic_gradients_are_bitwise_unchanged(monkeypatch, name,
                                                    problem_class):
    def compute():
        bench = registry.create(name, problem_class)
        tape, leaves, out = bench.traced_restart(_late_state(bench))
        keys = sorted(leaves)
        grads = backward(tape, out, [leaves[k] for k in keys])
        return {"output": ops.value_of(out), **dict(zip(keys, grads))}

    ref, got = _both(monkeypatch, compute)
    _assert_same(ref, got, f"{name}-{problem_class} monolithic")


@pytest.mark.parametrize("name,problem_class", GRADIENT_PORTS)
def test_segmented_plan_gradients_are_bitwise_unchanged(monkeypatch, name,
                                                        problem_class):
    def compute():
        bench = registry.create(name, problem_class)
        state = _late_state(bench)
        cache = PlanCache()
        # capture, compile, warm replay: the plan path must agree too
        sweeps = [segmented_gradients(bench, state, plan_cache=cache)
                  for _ in range(3)]
        assert cache.rejects == 0
        return sweeps

    ref, got = _both(monkeypatch, compute)
    for sweep, (r, g) in enumerate(zip(ref, got)):
        _assert_same(r, g, f"{name}-{problem_class} segmented sweep {sweep}")
        _assert_same(ref[0], g, f"{name}-{problem_class} replay {sweep}")


@pytest.mark.parametrize("name,problem_class", GRADIENT_PORTS)
def test_two_probe_batched_gradients_are_bitwise_unchanged(monkeypatch, name,
                                                           problem_class):
    def compute():
        bench = registry.create(name, problem_class)
        base = _late_state(bench)
        rng = np.random.default_rng(7)
        probe = {k: (v + 1e-3 * rng.standard_normal(np.shape(v))
                     if isinstance(v, np.ndarray) and v.dtype.kind == "f"
                     else v) for k, v in base.items()}
        return segmented_batched_gradients(bench, [base, probe],
                                           plan_cache=PlanCache())

    ref, got = _both(monkeypatch, compute)
    _assert_same(ref, got, f"{name}-{problem_class} 2-probe batched")


@pytest.mark.parametrize("name,problem_class,method", [
    ("FT", "T", "ad"), ("FT", "T", "tangent"), ("FT", "T", "activity"),
    ("LU", "T", "ad"), ("LU", "T", "tangent"), ("LU", "T", "activity"),
    ("FT", "S", "ad"), ("LU", "S", "ad"), ("LU", "S", "activity"),
])
def test_masks_are_bitwise_unchanged(monkeypatch, name, problem_class, method):
    def compute():
        bench = registry.create(name, problem_class)
        return scrutinize(bench, method=method).masks()

    ref, got = _both(monkeypatch, compute)
    assert set(ref) == set(got)
    for key in ref:
        np.testing.assert_array_equal(ref[key], got[key],
                                      err_msg=f"{name} {method} {key}")


# ---------------------------------------------------------------------------
# the helper itself
# ---------------------------------------------------------------------------

#: (field shape, output rows per axis): rectangular operators in both
#: directions, 3-D (FT's layout, incl. a trailing axis) and 4-D (LU's)
FIELDS = [((8, 16, 24), (5, 40, 12)), ((6, 7, 5, 3), (9, 4, 11, 2))]


def _cases():
    for shape, rows in FIELDS:
        for axis in range(3):
            yield shape, axis, rows[axis]


def _reverse(form, matrix, field, axis, weights, nb):
    """Output and gradient of a weighted square-sum through ``form``."""
    with Tape() as tape, probe_axis(nb) if nb else nullcontext():
        x = tape.watch(field, name="x")
        out = ops.sum(ops.square(form(matrix, x, axis)) * weights)
    (grad,) = backward(tape, out, [x])
    return ops.value_of(out), grad


@pytest.mark.parametrize("shape,axis,rows", list(_cases()))
def test_helper_matches_transposing_form(shape, axis, rows):
    rng = np.random.default_rng(len(shape) * 10 + axis)
    matrix = rng.standard_normal((rows, shape[axis]))
    field = rng.standard_normal(shape)
    expected = transposing_along_axis(matrix, field, axis)
    got = along_axis(matrix, field, axis)
    assert got.shape == shape[:axis] + (rows,) + shape[axis + 1:]
    _assert_same(expected, got, "plain value")

    # reverse mode, without and with a probe axis
    weights = rng.standard_normal(expected.shape)
    probes = np.stack([field, rng.standard_normal(shape)])
    for nb in (None, 2):
        ref_out, ref_g = _reverse(transposing_along_axis, matrix,
                                  probes if nb else field, axis, weights, nb)
        out, g = _reverse(along_axis, matrix, probes if nb else field, axis,
                          weights, nb)
        _assert_same(ref_out, out, f"output, probes={nb}")
        _assert_same(ref_g, g, f"gradient, probes={nb}")

    # forward mode: a stacked tangent of three directions
    tangent = TangentArray(field, rng.standard_normal((3,) + shape))
    ref_t = transposing_along_axis(matrix, tangent, axis)
    got_t = along_axis(matrix, tangent, axis)
    _assert_same(ref_t.value, got_t.value, "tangent value")
    _assert_same(ref_t.tangent, got_t.tangent, "tangent directions")


def test_helper_views_the_field_without_copying(monkeypatch):
    field = np.arange(8.0 * 16 * 24).reshape(8, 16, 24)
    operands = []
    real_matmul = ops.matmul
    monkeypatch.setattr(ops, "matmul",
                        lambda a, b: operands.append((a, b)) or
                        real_matmul(a, b))
    for axis in range(3):
        operands.clear()
        out = along_axis(np.eye(field.shape[axis]), field, axis)
        np.testing.assert_array_equal(out, field)
        ((a, b),) = operands
        assert np.shares_memory(a, field) or np.shares_memory(b, field)
