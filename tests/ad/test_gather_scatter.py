"""Integer-array gathers and their scatter-add cotangents.

``repro.ad.ops`` keeps one helper pair for advanced indexing: ``_gather``
(probe-batched gathers by one integer array run as ``np.take``) and
``_scatter_add`` (the cotangent scatter as one ``np.bincount`` over flat
positions from ``_scatter_positions``).  The tracer's ``getitem``/``take``
and the plan emitters both call them.  The criticality criterion is
"derivative exactly 0.0", so both must reproduce the fancy-indexing /
``np.add.at`` formulation bit for bit, duplicates, signed zeros, NaN,
infinities and overflow included.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.dual import TangentArray
from repro.ad.exec import _EMITTERS, _SPECIALIZED
from repro.ad.ir import Instr
from repro.ad.plan import PlanCache
from repro.ad.probes import probe_axis, segmented_batched_gradients
from repro.ad.reverse import backward
from repro.ad.segmented import segmented_gradients
from repro.ad.tape import Tape
from repro.npb import registry

TRIALS = 200


def _hostile(rng, shape, nan: bool = True, inf: bool = True) -> np.ndarray:
    """Cotangents with +-0.0, NaN, +-Inf and exponents across the double
    range (subnormals up to sums that overflow)."""
    g = rng.standard_normal(shape) * np.exp2(
        rng.integers(-1070, 1020, size=shape).astype(np.float64))
    u = rng.random(shape)
    g[u < 0.08] = 0.0
    g[(u >= 0.08) & (u < 0.16)] = -0.0
    if nan:
        g[(u >= 0.16) & (u < 0.20)] = np.nan
    if inf:
        g[(u >= 0.20) & (u < 0.23)] = np.inf
        g[(u >= 0.23) & (u < 0.26)] = -np.inf
    return g


def _unbatched_1d(rng):
    n = int(rng.integers(1, 9))
    # negative entries and many duplicates
    return (n,), rng.integers(-n, n, size=(int(rng.integers(0, 30)),))


def _unbatched_ell(rng):
    n = int(rng.integers(1, 9))
    return (n,), rng.integers(0, n, size=(int(rng.integers(1, 8)), 5))


def _batched_ell(rng):
    nb, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    idx = rng.integers(-n, n, size=(int(rng.integers(1, 8)), 3))
    return (nb, n), (slice(None), idx)


def _multi_array(rng):
    # FT's (ki, kj, kk) sample gather
    shape = tuple(int(s) for s in rng.integers(1, 5, size=3))
    m = int(rng.integers(0, 20))
    return shape, tuple(rng.integers(0, s, size=m) for s in shape)


def _batched_multi_array(rng):
    shape, idx = _multi_array(rng)
    return (3,) + shape, (slice(None),) + idx


def _broadcast_multi_array(rng):
    # negative indices in index arrays that broadcast against each other
    shape = tuple(int(s) for s in rng.integers(1, 5, size=int(
        rng.integers(2, 4))))
    out = tuple(int(s) for s in rng.integers(0, 4, size=int(
        rng.integers(1, 3))))
    return shape, tuple(
        rng.integers(-n, n, size=tuple(d if rng.random() < 0.6 else 1
                                       for d in out)) for n in shape)


def _batched_broadcast_multi_array(rng):
    shape, idx = _broadcast_multi_array(rng)
    lead = tuple(int(s) for s in rng.integers(1, 4, size=int(
        rng.integers(1, 3))))
    return lead + shape, (slice(None),) * len(lead) + idx


CASES = {
    "unbatched-1d": _unbatched_1d,
    "unbatched-ell": _unbatched_ell,
    "batched-slice-idx": _batched_ell,
    "multi-array": _multi_array,
    "batched-multi-array": _batched_multi_array,
    "broadcast-multi-array": _broadcast_multi_array,
    "batched-broadcast-multi-array": _batched_broadcast_multi_array,
}


def _add_at(shape, idx, g) -> np.ndarray:
    ref = np.zeros(shape)
    np.add.at(ref, idx, g)
    return ref


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("special", ["nan", "inf", "nan+inf"])
def test_bincount_scatter_is_add_at_bitwise(case, special):
    """Bit for bit, with one exception: where ``inf + -inf`` makes x86's
    default NaN (sign bit set) and a stored NaN (sign bit clear) meets it
    in the same element, IEEE 754 leaves the sum's payload open and the two
    loops keep different operands' -- both results are NaN."""
    rng = np.random.default_rng(sorted(CASES).index(case))
    flags = {"nan": "nan" in special, "inf": "inf" in special}
    for trial in range(TRIALS):
        shape, idx = CASES[case](rng)
        pos = ops._scatter_positions(shape, idx)
        g = _hostile(rng, pos.shape, **flags)
        got = ops._scatter_add(pos, g, shape)
        with np.errstate(invalid="ignore"):
            ref = _add_at(shape, idx, g)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        if special == "nan+inf":
            nan = np.isnan(ref)
            np.testing.assert_array_equal(np.isnan(got), nan)
            got, ref = got[~nan], ref[~nan]
        assert got.tobytes() == ref.tobytes(), f"{case} trial {trial}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_scatter_positions_are_the_arange_gather(case):
    """Positions, the 1-D fast path included, index a flat ``arange``."""
    rng = np.random.default_rng(100 + sorted(CASES).index(case))
    for trial in range(TRIALS):
        shape, idx = CASES[case](rng)
        ref = ops._gather(np.arange(math.prod(shape), dtype=np.intp)
                          .reshape(shape), idx, True)
        got = ops._scatter_positions(shape, idx)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes(), f"{case} trial {trial}"


def test_scatter_of_complex_cotangents_falls_back_to_add_at():
    rng = np.random.default_rng(11)
    idx = rng.integers(0, 4, size=12)
    g = _hostile(rng, (12,)) + 1j * _hostile(rng, (12,))
    got = ops._scatter_add(ops._scatter_positions((4,), idx), g, (4,))
    ref = np.zeros(4, dtype=complex)
    np.add.at(ref, idx, g)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("axis", [1, 2])
def test_batched_take_gather_is_fancy_indexing_bitwise(axis):
    rng = np.random.default_rng(axis)
    av = _hostile(rng, (4, 6, 5))
    idx = rng.integers(-5, 5, size=(7, 3))
    full_idx = (slice(None),) * axis + (idx,)
    got = ops._gather(av, full_idx, True)
    ref = np.ascontiguousarray(av[full_idx])
    assert got.flags.c_contiguous
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_getitem_and_take_cotangents_match_add_at():
    """The traced rules end to end, batched and not."""
    rng = np.random.default_rng(5)
    cols = rng.integers(0, 6, size=(6, 3))
    x0 = rng.standard_normal((3, 6))
    for nb in (None, 3):
        with Tape() as tape, probe_axis(nb) if nb else nullcontext():
            x = tape.watch(x0 if nb else x0[0], name="x")
            a = x[cols] * 1.5
            b = ops.take(x, cols[:, 0], axis=0)
            out = ops.sum(ops.sum(a, axis=-1) + b)
        (gx,) = backward(tape, out, [x])
        for p in range(nb or 1):
            ref = _add_at((6,), cols, np.full(cols.shape, 1.5))
            np.add.at(ref, cols[:, 0], 1.0)
            got = gx[p] if nb else gx
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape,indices,axis", [
    ((3,), [0], -1),                       # a 2-probe (2, 3) leaf
    ((3, 4), np.array([2, -1, 2]), -1),
    ((3, 4), np.array([[0, 2], [1, 1]]), -2),
    ((3, 4, 2), np.array([1, 0]), -3),
])
def test_take_with_negative_axis_batched_and_tangent(shape, indices, axis):
    rng = np.random.default_rng(len(shape))
    xs = rng.standard_normal((2,) + shape)
    weights = rng.standard_normal(np.take(xs[0], indices, axis=axis).shape)

    def loss(x):
        return ops.sum(ops.square(ops.take(x, indices, axis=axis)) * weights)

    per_probe = []
    for p in range(2):
        with Tape() as tape:
            x = tape.watch(xs[p], name="x")
            out = loss(x)
        per_probe.append((ops.value_of(out), backward(tape, out, [x])[0]))
    with Tape() as tape, probe_axis(2):
        x = tape.watch(xs, name="x")
        out = loss(x)
    (gx,) = backward(tape, out, [x])
    for p, (value, grad) in enumerate(per_probe):
        assert np.asarray(ops.value_of(out)[p]).tobytes() \
            == np.asarray(value).tobytes()
        assert gx[p].tobytes() == grad.tobytes()

    tangent = rng.standard_normal((3,) + shape)
    taken = ops.take(TangentArray(xs[0], tangent), indices, axis=axis)
    assert taken.value.tobytes() \
        == np.take(xs[0], indices, axis=axis).tobytes()
    for d in range(3):
        assert taken.tangent[d].tobytes() \
            == np.take(tangent[d], indices, axis=axis).tobytes()


@pytest.mark.parametrize("axis", [1, 3, -2])
def test_take_rejects_an_out_of_range_axis_like_numpy(axis):
    # logical rank 1: the probe axis must not make axis 1 (or -2) valid
    xs = np.arange(6.0).reshape(2, 3)
    with pytest.raises(np.exceptions.AxisError):
        np.take(xs[0], [0], axis=axis)
    with Tape() as tape, probe_axis(2):
        x = tape.watch(xs, name="x")
        with pytest.raises(np.exceptions.AxisError):
            ops.take(x, [0], axis=axis)
    with pytest.raises(np.exceptions.AxisError):
        ops.take(TangentArray(xs[0], xs), [0], axis=axis)


def _check_emitted_getitem(rng, in_shape, idx):
    av = rng.standard_normal(in_shape)
    ref_out = np.ascontiguousarray(av[idx])
    spec = ("getitem", idx, True, True, in_shape)
    node = Instr(1, "getitem", (0,), spec, ref_out.shape, "float64")
    assert _SPECIALIZED["getitem"](spec, node, None) is None
    out, vjp = _EMITTERS["getitem"](spec, node)([av])
    assert out.flags.c_contiguous
    assert out.tobytes() == ref_out.tobytes()
    g = _hostile(rng, out.shape)
    (grad,) = vjp(g)
    assert grad.tobytes() == _add_at(in_shape, idx, g).tobytes()


def test_emitted_advanced_getitem_matches_add_at():
    rng = np.random.default_rng(9)
    _check_emitted_getitem(rng, (3, 7),
                           (slice(None), rng.integers(0, 7, size=(7, 4))))


def test_emitted_multi_array_getitem_matches_add_at():
    # FT's batched sample gather, negative indices included
    rng = np.random.default_rng(10)
    _check_emitted_getitem(rng, (3, 5, 7),
                           (slice(None), rng.integers(-5, 5, size=(9,)),
                            rng.integers(-7, 7, size=(9,))))


# ---------------------------------------------------------------------------
# CG's ELLPACK matvecs: plan replay vs the tracer
# ---------------------------------------------------------------------------

def _assert_bitwise(expected, got, label):
    a = np.asarray(expected, dtype=np.float64)
    b = np.asarray(got, dtype=np.float64)
    assert a.shape == b.shape, label
    assert a.tobytes() == b.tobytes(), f"{label}: bits differ"


def test_cg_plan_replay_is_the_tracer_bitwise():
    bench = registry.create("CG", "T")
    state = bench.checkpoint_state(bench.total_steps - 3)
    reference = segmented_gradients(bench, state, trace_cache="off")
    cache = PlanCache()
    for sweep in range(3):      # capture, compile, warm replay
        got = segmented_gradients(bench, state, plan_cache=cache)
        for key in reference:
            _assert_bitwise(reference[key], got[key], f"x sweep {sweep}")
    assert cache.hits > 0 and cache.rejects == 0


def test_cg_batched_plan_replay_is_the_tracer_bitwise():
    bench = registry.create("CG", "T")
    base = bench.checkpoint_state(bench.total_steps - 2)
    rng = np.random.default_rng(3)
    states = [base] + [dict(base, x=base["x"] + 1e-3 * rng.standard_normal(
        base["x"].shape)) for _ in range(3)]
    reference = segmented_batched_gradients(bench, states, watch=["x"],
                                            trace_cache="off")
    cache = PlanCache()
    for sweep in range(3):
        got = segmented_batched_gradients(bench, states, watch=["x"],
                                          plan_cache=cache)
        _assert_bitwise(reference["x"], got["x"], f"x sweep {sweep}")
    assert cache.hits > 0 and cache.rejects == 0
