"""Primitive array operations with their vector-Jacobian products (VJPs).

This module is both

* the **primitive library** of the reverse-mode AD engine -- every function
  here knows how to compute its value with NumPy *and* how to pull a
  cotangent back to its inputs -- and
* the **numpy-like facade** the NPB mini-apps are written against: every
  function accepts either plain numpy arrays (in which case it behaves
  exactly like the corresponding :mod:`numpy` function and returns plain
  numpy data) or traced :class:`~repro.ad.tensor.ADArray` objects (in which
  case the operation is recorded on the tape of its traced operands).

The design follows the guidance of the HPC-Python coding guides used for
this project: hot paths stay fully vectorised (the tape records *array*
operations, never per-element ones), gradient buffers are reused in place
during the reverse sweep, and no Python-level loop runs over array elements.

Only the primitives required by the NPB kernels and the checkpoint analysis
are implemented; adding a new primitive means adding one function following
the ``_record`` pattern below.
"""

from __future__ import annotations

import builtins
import math
from typing import Any, Callable, Sequence

import numpy as np
from numpy.lib.array_utils import normalize_axis_index

from .dual import TangentArray
from .plan import _CAPTURE
from .probes import ProbeBatchingError, probe_axis_size
from .tape import Tape, _TAPES, get_active_tape
from .tensor import ADArray, value_of

__all__ = [
    # elementwise binary
    "add", "subtract", "multiply", "divide", "power", "maximum", "minimum",
    "mod",
    # elementwise unary
    "negative", "absolute", "sqrt", "exp", "log", "log1p", "expm1",
    "sin", "cos", "tan", "tanh", "sign", "square", "reciprocal", "clip",
    # reductions
    "sum", "mean", "max", "min", "prod", "norm",
    # shape manipulation
    "reshape", "transpose", "swapaxes", "broadcast_to", "concatenate",
    "stack", "moveaxis", "squeeze", "expand_dims", "ravel", "flip", "roll",
    "pad_zero",
    # selection / indexing
    "getitem", "take", "index_update", "index_add", "where", "copy",
    "astype", "detach",
    # linear algebra
    "matmul", "dot", "outer",
    # constructors / passthrough helpers
    "zeros", "ones", "full", "zeros_like", "ones_like", "arange", "linspace",
    "asarray", "array",
    # misc
    "isnan", "isfinite", "allclose", "to_numpy", "logical_shape",
]


# ---------------------------------------------------------------------------
# recording machinery
# ---------------------------------------------------------------------------

def _traced_parents(*operands: Any) -> list[ADArray]:
    """Return the operands that are traced ADArrays, in order."""
    return [x for x in operands if isinstance(x, ADArray) and x.node is not None]


def _target_tape(parents: Sequence[ADArray]) -> Tape | None:
    """Pick the tape new nodes should be recorded on.

    Preference order: the innermost *active* tape (if any), falling back to
    the tape of the first traced parent.  When tracing is suspended with
    :class:`repro.ad.tape.no_tape`, returns ``None`` and the operation is
    not recorded.
    """
    if _TAPES.stack:
        return _TAPES.stack[-1]  # may be None inside ``no_tape``
    if parents:
        return parents[0].tape
    return None


def _record(op: str, value: np.ndarray, parents: Sequence[ADArray],
            vjp: Callable[[np.ndarray], tuple],
            meta: dict | None = None, spec: tuple | None = None) -> Any:
    """Record one primitive and wrap its output.

    If there are no traced parents, or tracing is suspended, the plain numpy
    value is returned so untraced code pays no overhead.  ``spec`` is the
    primitive's replay description, supplied only while a plan capture
    (:mod:`repro.ad.plan`) is active; a recorded node without one marks the
    capture as unreplayable (the plan cache then falls back to tracing).
    """
    parents = list(parents)
    if not parents:
        return value
    tape = _target_tape(parents)
    if tape is None:
        return value
    nb = probe_axis_size()
    if nb is not None and (np.ndim(value) == 0 or np.shape(value)[0] != nb):
        # a traced result lost the probe axis: abort the batched trace so
        # the caller falls back to the per-probe path instead of silently
        # mixing probes
        raise ProbeBatchingError(
            f"primitive {op!r} produced shape {np.shape(value)} without a "
            f"leading probe axis of length {nb}")
    node = tape.add_node(op, [p.node for p in parents], vjp,
                         np.shape(value), np.asarray(value).dtype, meta=meta)
    capture = _CAPTURE.capture
    if capture is not None:
        capture.on_node(node, spec)
    return ADArray(value, node=node, tape=tape)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted cotangent ``g`` back down to ``shape``."""
    g = np.asarray(g)
    if g.shape == tuple(shape):
        return g
    # sum over leading broadcast dimensions
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    # sum over axes that were size-1 in the original shape
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def to_numpy(x: Any) -> np.ndarray:
    """Concrete numpy value of ``x`` (identity for plain arrays)."""
    return value_of(x)


# ---------------------------------------------------------------------------
# probe-batching support (see repro.ad.probes)
#
# Inside a ``probes.probe_axis(n)`` context every *traced* array carries a
# leading probe axis of length ``n``; plain numpy operands never do.  The
# helpers below implement the two adjustments the primitives need to keep
# that invariant:
#
# * value alignment for elementwise broadcasting (numpy aligns shapes from
#   the right, the probe axis sits on the left, so a batched operand of
#   lower logical rank gains singleton logical axes just after the probe
#   axis);
# * axis/index shifting for reductions, shape manipulation and indexing
#   (logical axis ``k`` lives at position ``k + 1`` of a batched array;
#   negative axes are untouched because the trailing dimensions are
#   unchanged).
# ---------------------------------------------------------------------------

def _is_traced(x: Any) -> bool:
    return isinstance(x, ADArray) and x.node is not None


def _probe_batch(*operands: Any) -> int | None:
    """Probe-axis size when batched tracing is active for these operands."""
    n = probe_axis_size()
    if n is None:
        return None
    for x in operands:
        if _is_traced(x):
            return n
    return None


def logical_shape(x: Any) -> tuple:
    """Shape of ``x`` with the probe axis stripped.

    Identical to ``numpy.shape(value_of(x))`` outside batched tracing (and
    for plain operands inside it); kernels that introspect traced shapes to
    build reshape targets must use this instead of the raw value shape so
    they work unchanged under a batched probe sweep.
    """
    shape = tuple(np.shape(value_of(x)))
    if probe_axis_size() is not None and _is_traced(x):
        return shape[1:]
    return shape


def _probe_align(nb: int, *pairs: tuple[Any, bool]) -> list[np.ndarray]:
    """Lift batched operands so elementwise broadcasting stays per-probe.

    ``pairs`` are ``(value, traced)`` tuples; traced values carry the probe
    axis.  Every traced value is reshaped to
    ``(nb,) + (1,)*(L - logical_ndim) + logical_shape`` where ``L`` is the
    largest logical rank among all operands, which makes numpy's
    right-aligned broadcasting match the unbatched semantics with the probe
    axis on the left.  Plain operands are returned untouched.
    """
    values = [np.asarray(value) for value, _ in pairs]
    target = 0
    for value, traced in zip(values, (t for _, t in pairs)):
        target = builtins.max(target, value.ndim - 1 if traced else value.ndim)
    lifted = []
    for value, (_, traced) in zip(values, pairs):
        if traced and value.ndim - 1 < target:
            value = value.reshape(value.shape[:1]
                                  + (1,) * (target - (value.ndim - 1))
                                  + value.shape[1:])
        lifted.append(value)
    return lifted


def _probe_reduce_axis(axis: Any, ndim: int, nb: int | None) -> Any:
    """Map logical reduction axes onto a batched array (keep the probe axis)."""
    if nb is None:
        return axis
    if axis is None:
        return tuple(range(1, ndim))
    if isinstance(axis, (tuple, list)):
        return tuple(ax + 1 if ax >= 0 else ax for ax in axis)
    return axis + 1 if axis >= 0 else axis


def _probe_shift_axis(axis: Any, nb: int | None) -> Any:
    """Shift non-negative logical axes past the probe axis (None unchanged)."""
    if nb is None or axis is None:
        return axis
    if isinstance(axis, (tuple, list, np.ndarray)):
        return tuple(int(ax) + 1 if int(ax) >= 0 else int(ax) for ax in axis)
    return axis + 1 if axis >= 0 else axis


def _probe_index(index: Any, nb: int | None) -> Any:
    """Prepend a full probe-axis slice to a logical index expression.

    Advanced indices separated by a slice/ellipsis are rejected: numpy
    moves their broadcast subspace *in front of* the prepended probe
    slice, which would silently transpose the probe axis away (the
    ``_record`` shape guard cannot catch it when the subspace length
    coincides with the probe count).  No NPB kernel uses the pattern; a
    custom kernel that does falls back to the per-probe path.
    """
    if nb is None:
        return index
    if isinstance(index, tuple):
        if _has_separated_advanced(index):
            raise ProbeBatchingError(
                "advanced indices separated by slices place their "
                "subspace in front of the probe axis; this index "
                "expression cannot be probe-batched")
        return (slice(None),) + index
    return (slice(None), index)


def _has_separated_advanced(index: tuple) -> bool:
    """True when ``index`` holds advanced entries split by a basic one.

    Mirrors numpy's placement rule: advanced indexing is only in play
    when an array/list entry is present; integers then join the advanced
    group for adjacency purposes (they broadcast as 0-d indices).
    """
    if not builtins.any(isinstance(entry, (np.ndarray, list))
                        for entry in index):
        return False     # ints + slices only: basic indexing, no reorder

    def is_advanced(entry: Any) -> bool:
        return isinstance(entry, (np.ndarray, list)) \
            or (isinstance(entry, (int, np.integer))
                and not isinstance(entry, bool))

    flags = [is_advanced(entry) for entry in index]
    if builtins.sum(flags) < 2:
        return False
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)
    return not builtins.all(flags[first:last + 1])


def _unbroadcast_keep_probe(g: np.ndarray, shape: tuple,
                            batched: bool) -> np.ndarray:
    """:func:`_unbroadcast`, but never collapse a leading probe axis.

    When ``batched``, ``g`` and ``shape`` both start with the probe axis;
    surplus broadcast dimensions are summed just *after* it instead of at
    axis 0.
    """
    if not batched:
        return _unbroadcast(g, shape)
    g = np.asarray(g)
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=1)
    for axis, dim in enumerate(shape):
        if axis > 0 and dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# forward-mode (JVP) dispatch (see repro.ad.dual / repro.ad.tangent)
#
# A :class:`~repro.ad.dual.TangentArray` operand switches a primitive into
# forward mode: the value is computed with exactly the same numpy calls on
# the same logical values as the untraced/reverse path, and the *stacked
# tangent* -- shape ``(n_directions,) + logical_shape`` -- is pushed forward
# through the same shared rule tables the reverse VJPs pull cotangents
# through (EW_BINARY_RULES / UNARY_RULES / MINMAX_RULES), so the two modes
# share one set of tie/zero subgradient conventions by construction.
# Nothing is recorded on any tape.  The leading direction axis reuses the
# probe-axis mechanics above verbatim: singleton lifting for right-aligned
# broadcasting, +1 axis shifts for reductions and shape ops, and a
# prepended full slice for indexing.
# ---------------------------------------------------------------------------

def _any_tangent(*operands: Any) -> bool:
    return builtins.any(isinstance(x, TangentArray) for x in operands)


def _tangent_parts(x: Any) -> tuple[np.ndarray, np.ndarray | None]:
    """(logical value, stacked tangent or ``None``) of one operand."""
    if isinstance(x, TangentArray):
        return x.value, x.tangent
    return np.asarray(value_of(x)), None


def _tangent_dirs(*operands: Any) -> int:
    """Direction count of the first TangentArray operand."""
    for x in operands:
        if isinstance(x, TangentArray):
            return x.tangent.shape[0]
    raise TypeError("no TangentArray operand")  # pragma: no cover - guarded


def _tangent_lift(t: np.ndarray, target: int) -> np.ndarray:
    """Insert singleton logical axes just after the direction axis.

    The exact :func:`_probe_align` lift applied to one tangent: with the
    tangent's logical rank raised to ``target``, numpy's right-aligned
    broadcasting against plain logical operands matches the unstacked
    elementwise semantics while the direction axis stays in front.
    """
    lndim = t.ndim - 1
    if lndim < target:
        t = t.reshape(t.shape[:1] + (1,) * (target - lndim) + t.shape[1:])
    return t


def _tangent_result(out: Any, dt: Any, nd: int) -> TangentArray:
    """Wrap ``(value, tangent)``, materialising the tangent at full shape.

    The tangent is broadcast up to ``(nd,) + out.shape`` and copied to C
    order whenever broadcasting was needed, so downstream reductions
    traverse every direction slice in the same memory order as a
    single-direction sweep (the per-direction bitwise guarantee).
    """
    out = np.asarray(out)
    dt = np.asarray(dt)
    target = (nd,) + out.shape
    if dt.shape != target:
        dt = np.array(np.broadcast_to(dt, target), copy=True, order="C")
    return TangentArray(out, dt)


def _tangent_ew_binary(a: Any, b: Any, compute, grad_a, grad_b) -> TangentArray:
    """Forward rule of one elementwise binary primitive.

    Every ``EW_BINARY_RULES`` cotangent is a *linear* elementwise map of
    ``g``, so applying it to a lifted tangent instead of a cotangent is the
    exact JVP: ``dt = grad_a(ta) + grad_b(tb)``.
    """
    av, ta = _tangent_parts(a)
    bv, tb = _tangent_parts(b)
    nd = _tangent_dirs(a, b)
    out = compute(av, bv)
    target = builtins.max(av.ndim, bv.ndim)
    dt = None
    if ta is not None:
        dt = grad_a(_tangent_lift(ta, target), av, bv)
    if tb is not None:
        dtb = grad_b(_tangent_lift(tb, target), av, bv)
        dt = dtb if dt is None else dt + dtb
    return _tangent_result(out, dt, nd)


def _tangent_minmax(a: Any, b: Any, compute, mask_of) -> TangentArray:
    """Forward rule of maximum/minimum with the shared tie mask."""
    av, ta = _tangent_parts(a)
    bv, tb = _tangent_parts(b)
    nd = _tangent_dirs(a, b)
    out = compute(av, bv)
    mask_a = mask_of(av, bv)
    target = builtins.max(av.ndim, bv.ndim)
    dt = None
    if ta is not None:
        dt = _tangent_lift(ta, target) * mask_a
    if tb is not None:
        dtb = _tangent_lift(tb, target) * ~mask_a
        dt = dtb if dt is None else dt + dtb
    return _tangent_result(out, dt, nd)


def _tangent_matmul(a: Any, b: Any) -> TangentArray:
    """Forward rule of matmul (product rule, direction axis as batch dim).

    Logical 1-D operands are lifted to row/column matrices exactly as in
    :func:`_probe_matmul`; the direction axis broadcasts as a leading batch
    dimension (numpy batched matmul runs one 2-D GEMM per direction slice,
    so a stacked pass computes each direction bitwise as a width-1 pass
    would) and the inserted singleton axes are squeezed back out.
    """
    av, ta = _tangent_parts(a)
    bv, tb = _tangent_parts(b)
    nd = _tangent_dirs(a, b)
    la, lb = av.ndim, bv.ndim
    if la == 0 or lb == 0:
        raise ValueError("matmul operands must be at least 1-D")
    av_m = av[..., None, :] if la == 1 else av
    bv_m = bv[..., :, None] if lb == 1 else bv
    out_m = np.matmul(av_m, bv_m)
    dt_m = None
    if ta is not None:
        ta_m = ta[..., None, :] if la == 1 else ta
        dt_m = np.matmul(_tangent_lift_batch(ta_m, bv_m.ndim - 2), bv_m)
    if tb is not None:
        tb_m = tb[..., :, None] if lb == 1 else tb
        d2 = np.matmul(av_m, _tangent_lift_batch(tb_m, av_m.ndim - 2))
        dt_m = d2 if dt_m is None else dt_m + d2
    if la == 1 and lb == 1:
        out, dt = out_m[..., 0, 0], dt_m[..., 0, 0]
    elif la == 1:
        out, dt = out_m[..., 0, :], dt_m[..., 0, :]
    elif lb == 1:
        out, dt = out_m[..., :, 0], dt_m[..., :, 0]
    else:
        out, dt = out_m, dt_m
    return _tangent_result(out, dt, nd)


def _tangent_lift_batch(t_m: np.ndarray, other_batch: int) -> np.ndarray:
    """Pad a matrix-form tangent's batch rank with singletons after the
    direction axis, so the other operand's batch dims broadcast against the
    *logical* batch dims instead of swallowing the direction axis."""
    own_batch = t_m.ndim - 3
    if own_batch < other_batch:
        t_m = t_m.reshape(t_m.shape[:1] + (1,) * (other_batch - own_batch)
                          + t_m.shape[1:])
    return t_m


def _tangent_index_write(a: Any, index: Any, b: Any,
                         add: bool) -> TangentArray:
    """Forward rule of index_update (``add=False``) / index_add (``True``).

    The target's tangent is copied; an overwrite replaces the region's
    tangent with the value operand's (zero for a plain value), a
    scatter-add accumulates it with ``np.add.at`` semantics.
    """
    av, ta = _tangent_parts(a)
    bv, tb = _tangent_parts(b)
    nd = _tangent_dirs(a, b)
    idx = _index_values(index)
    full_idx = _probe_index(idx, nd)
    out = np.array(av, copy=True)
    if ta is not None:
        out_t = np.array(ta, copy=True)
    else:
        out_t = np.zeros((nd,) + out.shape,
                         dtype=tb.dtype if tb is not None else np.float64)
    if add:
        np.add.at(out, idx, bv)
        if tb is not None:
            np.add.at(out_t, full_idx, tb)
    else:
        out[idx] = bv
        out_t[full_idx] = tb if tb is not None else 0.0
    return TangentArray(out, out_t)


def _tangent_join(joiner, arrays: list, axis: int) -> TangentArray:
    """Forward rule of concatenate/stack: plain parts contribute zero
    tangents, the join axis shifts past the direction axis."""
    values = [np.asarray(value_of(x)) for x in arrays]
    nd = _tangent_dirs(*arrays)
    t_dtype = np.result_type(*[x.tangent for x in arrays
                               if isinstance(x, TangentArray)])
    parts = [x.tangent if isinstance(x, TangentArray)
             else np.zeros((nd,) + np.shape(v), dtype=t_dtype)
             for x, v in zip(arrays, values)]
    return TangentArray(joiner(values, axis=axis),
                        joiner(parts, axis=_probe_shift_axis(axis, nd)))


def _tangent_weighted_reduce(a: TangentArray, axis, keepdims: bool,
                             out: np.ndarray, w: np.ndarray) -> TangentArray:
    """Forward rule of the weighted-sum reductions (max/min/prod).

    ``w`` is the logical weight array the matching VJP distributes its
    cotangent with (the tie mask split or ``out / safe``); its transpose --
    a weighted sum over the reduced axes -- is the JVP.
    """
    ta = a.tangent
    axis_t = _probe_reduce_axis(axis, ta.ndim, ta.shape[0])
    dt = np.sum(w * ta, axis=axis_t, keepdims=keepdims)
    return _tangent_result(out, dt, ta.shape[0])


# ---------------------------------------------------------------------------
# elementwise binary primitives
# ---------------------------------------------------------------------------

def _probe_restore(g: np.ndarray, true_shape: tuple) -> np.ndarray:
    """Collapse a lifted-shape cotangent back to the operand's node shape."""
    g = np.asarray(g)
    if g.shape == tuple(true_shape):
        return g
    return g.reshape(true_shape)


def _power_grad_b(g: np.ndarray, av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        loga = np.where(av > 0, np.log(np.where(av > 0, av, 1.0)), 0.0)
    return g * (av ** bv) * loga


#: shared compute/VJP rules of the elementwise binary primitives -- the
#: single source the tracer *and* the compiled replay plans
#: (:mod:`repro.ad.plan`) execute, so replayed values and cotangents are
#: bitwise-identical by construction
EW_BINARY_RULES: dict[str, tuple] = {
    "add": (lambda av, bv: av + bv,
            lambda g, av, bv: g,
            lambda g, av, bv: g),
    "subtract": (lambda av, bv: av - bv,
                 lambda g, av, bv: g,
                 lambda g, av, bv: -g),
    "multiply": (lambda av, bv: av * bv,
                 lambda g, av, bv: g * bv,
                 lambda g, av, bv: g * av),
    "divide": (lambda av, bv: av / bv,
               lambda g, av, bv: g / bv,
               lambda g, av, bv: -g * av / (bv * bv)),
    "power": (lambda av, bv: av ** bv,
              lambda g, av, bv: g * bv * av ** (bv - 1.0),
              _power_grad_b),
}


def _elementwise_binary(op: str, a: Any, b: Any,
                        compute: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        grad_a: Callable[..., np.ndarray],
                        grad_b: Callable[..., np.ndarray]) -> Any:
    """Record one elementwise binary primitive with probe-aware broadcasting.

    ``compute(av, bv)`` produces the value; ``grad_a(g, av, bv)`` /
    ``grad_b(g, av, bv)`` produce the raw cotangents, which are then
    unbroadcast to the (possibly probe-lifted) operand shape and restored to
    the operand's true node shape.
    """
    if _any_tangent(a, b):
        return _tangent_ew_binary(a, b, compute, grad_a, grad_b)
    av0, bv0 = value_of(a), value_of(b)
    a_tr, b_tr = _is_traced(a), _is_traced(b)
    nb = _probe_batch(a, b)
    if nb is not None:
        av, bv = _probe_align(nb, (av0, a_tr), (bv0, b_tr))
    else:
        av, bv = av0, bv0
    out = compute(av, bv)
    parents = _traced_parents(a, b)
    a_shape, b_shape = np.shape(av0), np.shape(bv0)
    a_lift, b_lift = np.shape(av), np.shape(bv)

    # the closure holds values, never the operand wrappers: a multiply
    # cotangent reads only the other side's value, so the side no computed
    # cotangent reads is dropped and the tape does not keep it alive (a
    # constant times a gathered vector holds no gather)
    ga_v, gb_v = av, bv
    if op == "multiply":
        ga_v, gb_v = (av if b_tr else None), (bv if a_tr else None)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if a_tr:
            grads.append(_probe_restore(
                _unbroadcast(grad_a(g, ga_v, gb_v), a_lift), a_shape))
        if b_tr:
            grads.append(_probe_restore(
                _unbroadcast(grad_b(g, ga_v, gb_v), b_lift), b_shape))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None and op in EW_BINARY_RULES:
        spec = ("ewbinary", op, a_tr, b_tr,
                None if a_tr else av, None if b_tr else bv,
                a_shape, b_shape, a_lift, b_lift)
    return _record(op, out, parents, vjp, spec=spec)


def add(a: Any, b: Any) -> Any:
    """Elementwise ``a + b`` with NumPy broadcasting."""
    return _elementwise_binary("add", a, b, *EW_BINARY_RULES["add"])


def subtract(a: Any, b: Any) -> Any:
    """Elementwise ``a - b`` with NumPy broadcasting."""
    return _elementwise_binary("subtract", a, b,
                               *EW_BINARY_RULES["subtract"])


def multiply(a: Any, b: Any) -> Any:
    """Elementwise ``a * b`` with NumPy broadcasting."""
    return _elementwise_binary("multiply", a, b,
                               *EW_BINARY_RULES["multiply"])


def divide(a: Any, b: Any) -> Any:
    """Elementwise true division ``a / b``."""
    return _elementwise_binary("divide", a, b, *EW_BINARY_RULES["divide"])


def power(a: Any, b: Any) -> Any:
    """Elementwise ``a ** b``.

    The exponent may be traced, but the usual use in the kernels is a
    constant scalar exponent, for which the VJP reduces to
    ``g * b * a**(b-1)``.
    """
    return _elementwise_binary("power", a, b, *EW_BINARY_RULES["power"])


#: shared compute/tie-mask rules of maximum/minimum (tracer + replay plans)
MINMAX_RULES: dict[str, tuple] = {
    "maximum": (np.maximum, lambda av, bv: av >= bv),
    "minimum": (np.minimum, lambda av, bv: av <= bv),
}


def _minmax_binary(op: str, a: Any, b: Any, compute, mask_of) -> Any:
    """Shared maximum/minimum recorder; the tie mask is computed once at
    trace time and shared by both cotangents."""
    if _any_tangent(a, b):
        return _tangent_minmax(a, b, compute, mask_of)
    av0, bv0 = value_of(a), value_of(b)
    nb = _probe_batch(a, b)
    if nb is not None:
        av, bv = _probe_align(nb, (av0, _is_traced(a)), (bv0, _is_traced(b)))
    else:
        av, bv = av0, bv0
    out = compute(av, bv)
    mask_a = mask_of(av, bv)
    parents = _traced_parents(a, b)
    a_shape, b_shape = np.shape(av0), np.shape(bv0)
    a_lift, b_lift = np.shape(av), np.shape(bv)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if _is_traced(a):
            grads.append(_probe_restore(
                _unbroadcast(g * mask_a, a_lift), a_shape))
        if _is_traced(b):
            grads.append(_probe_restore(
                _unbroadcast(g * ~mask_a, b_lift), b_shape))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        spec = ("minmax", op, _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv,
                a_shape, b_shape, a_lift, b_lift)
    return _record(op, out, parents, vjp, spec=spec)


def maximum(a: Any, b: Any) -> Any:
    """Elementwise maximum; ties send the cotangent to the first operand."""
    return _minmax_binary("maximum", a, b, *MINMAX_RULES["maximum"])


def minimum(a: Any, b: Any) -> Any:
    """Elementwise minimum; ties send the cotangent to the first operand."""
    return _minmax_binary("minimum", a, b, *MINMAX_RULES["minimum"])


def mod(a: Any, b: Any) -> Any:
    """Elementwise ``a % b``; derivative taken w.r.t. ``a`` only."""
    if _any_tangent(a, b):
        av, ta = _tangent_parts(a)
        bv, _tb = _tangent_parts(b)
        out = np.mod(av, bv)
        if ta is None:          # derivative w.r.t. ``b`` is ignored
            return out
        nd = ta.shape[0]
        return _tangent_result(
            out, _tangent_lift(ta, builtins.max(av.ndim, bv.ndim)), nd)
    av0, bv0 = value_of(a), value_of(b)
    nb = _probe_batch(a, b)
    if nb is not None:
        av, bv = _probe_align(nb, (av0, _is_traced(a)), (bv0, _is_traced(b)))
    else:
        av, bv = av0, bv0
    out = np.mod(av, bv)
    parents = _traced_parents(a)
    a_shape, a_lift = np.shape(av0), np.shape(av)

    def vjp(g: np.ndarray) -> tuple:
        return (_probe_restore(_unbroadcast(g, a_lift), a_shape),)

    return _record("mod", out, parents, vjp)


# ---------------------------------------------------------------------------
# elementwise unary primitives
# ---------------------------------------------------------------------------

#: shared compute/derivative rules of the unary primitives, as
#: ``(compute(av), dydx(av, out))`` pairs -- executed by the tracer and by
#: the compiled replay plans alike (bitwise-identical by construction)
UNARY_RULES: dict[str, tuple] = {
    "absolute": (np.abs, lambda av, out: np.sign(av)),
    "sqrt": (np.sqrt, lambda av, out: 0.5 / np.where(out == 0, np.inf, out)),
    "exp": (np.exp, lambda av, out: out),
    "expm1": (np.expm1, lambda av, out: np.exp(av)),
    "log": (np.log, lambda av, out: 1.0 / av),
    "log1p": (np.log1p, lambda av, out: 1.0 / (1.0 + av)),
    "sin": (np.sin, lambda av, out: np.cos(av)),
    "cos": (np.cos, lambda av, out: -np.sin(av)),
    "tan": (np.tan, lambda av, out: 1.0 / np.cos(av) ** 2),
    "tanh": (np.tanh, lambda av, out: 1.0 - out ** 2),
    "sign": (np.sign, lambda av, out: np.zeros_like(av)),
    "square": (lambda av: av * av, lambda av, out: 2.0 * av),
    "reciprocal": (lambda av: 1.0 / av, lambda av, out: -1.0 / (av * av)),
}


def _unary(op: str, a: Any, out: np.ndarray,
           dydx: Callable[[], np.ndarray],
           spec: tuple | None = None) -> Any:
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (g * dydx(),)

    return _record(op, out, parents, vjp, spec=spec)


def _rule_unary(op: str, a: Any) -> Any:
    """Record one table-driven unary primitive (see :data:`UNARY_RULES`)."""
    compute, dydx = UNARY_RULES[op]
    if isinstance(a, TangentArray):
        av = a.value
        out = compute(av)
        return _tangent_result(out, dydx(av, out) * a.tangent,
                               a.tangent.shape[0])
    av = value_of(a)
    out = compute(av)
    spec = ("unary", op) if _CAPTURE.capture is not None else None
    return _unary(op, a, out, lambda: dydx(av, out), spec=spec)


def negative(a: Any) -> Any:
    """Elementwise negation."""
    if isinstance(a, TangentArray):
        return TangentArray(-a.value, -a.tangent)
    av = value_of(a)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (-g,)

    spec = ("negative",) if _CAPTURE.capture is not None else None
    return _record("negative", -av, parents, vjp, spec=spec)


def absolute(a: Any) -> Any:
    """Elementwise absolute value (subgradient ``sign(a)`` at 0)."""
    return _rule_unary("absolute", a)


def sqrt(a: Any) -> Any:
    """Elementwise square root."""
    return _rule_unary("sqrt", a)


def exp(a: Any) -> Any:
    """Elementwise exponential."""
    return _rule_unary("exp", a)


def expm1(a: Any) -> Any:
    """Elementwise ``exp(a) - 1``."""
    return _rule_unary("expm1", a)


def log(a: Any) -> Any:
    """Elementwise natural logarithm."""
    return _rule_unary("log", a)


def log1p(a: Any) -> Any:
    """Elementwise ``log(1 + a)``."""
    return _rule_unary("log1p", a)


def sin(a: Any) -> Any:
    """Elementwise sine."""
    return _rule_unary("sin", a)


def cos(a: Any) -> Any:
    """Elementwise cosine."""
    return _rule_unary("cos", a)


def tan(a: Any) -> Any:
    """Elementwise tangent."""
    return _rule_unary("tan", a)


def tanh(a: Any) -> Any:
    """Elementwise hyperbolic tangent."""
    return _rule_unary("tanh", a)


def sign(a: Any) -> Any:
    """Elementwise sign; derivative is zero almost everywhere."""
    return _rule_unary("sign", a)


def square(a: Any) -> Any:
    """Elementwise square."""
    return _rule_unary("square", a)


def reciprocal(a: Any) -> Any:
    """Elementwise ``1 / a``."""
    return _rule_unary("reciprocal", a)


def clip(a: Any, lo: float, hi: float) -> Any:
    """Clamp values to ``[lo, hi]``; cotangent passes only inside the range."""
    if isinstance(a, TangentArray):
        av = a.value
        inside = (av >= lo) & (av <= hi)
        return _tangent_result(np.clip(av, lo, hi),
                               a.tangent * inside.astype(av.dtype),
                               a.tangent.shape[0])
    av = value_of(a)
    out = np.clip(av, lo, hi)
    inside = (av >= lo) & (av <= hi)
    return _unary("clip", a, out, lambda: inside.astype(av.dtype))


def isnan(a: Any) -> np.ndarray:
    """Non-differentiable NaN test on the concrete value."""
    return np.isnan(value_of(a))


def isfinite(a: Any) -> np.ndarray:
    """Non-differentiable finiteness test on the concrete value."""
    return np.isfinite(value_of(a))


def allclose(a: Any, b: Any, rtol: float = 1e-5, atol: float = 1e-8) -> bool:
    """Non-differentiable closeness test on concrete values."""
    return bool(np.allclose(value_of(a), value_of(b), rtol=rtol, atol=atol))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Sum of elements over the given axis."""
    if isinstance(a, TangentArray):
        ta = a.tangent
        axis_t = _probe_reduce_axis(axis, ta.ndim, ta.shape[0])
        return _tangent_result(np.sum(a.value, axis=axis, keepdims=keepdims),
                               np.sum(ta, axis=axis_t, keepdims=keepdims),
                               ta.shape[0])
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    out = np.sum(av, axis=axis, keepdims=keepdims)
    parents = _traced_parents(a)
    in_shape = av.shape     # the closure must not keep the input alive

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    spec = ("sum", axis, keepdims, in_shape) \
        if _CAPTURE.capture is not None else None
    return _record("sum", out, parents, vjp, spec=spec)


def mean(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Arithmetic mean over the given axis."""
    if isinstance(a, TangentArray):
        ta = a.tangent
        axis_t = _probe_reduce_axis(axis, ta.ndim, ta.shape[0])
        return _tangent_result(np.mean(a.value, axis=axis, keepdims=keepdims),
                               np.mean(ta, axis=axis_t, keepdims=keepdims),
                               ta.shape[0])
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    out = np.mean(av, axis=axis, keepdims=keepdims)
    parents = _traced_parents(a)
    count = av.size if axis is None else np.prod(
        [av.shape[ax] for ax in np.atleast_1d(axis)], dtype=np.int64)

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g) / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, av.shape).copy(),)

    spec = ("mean", axis, keepdims, count, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("mean", out, parents, vjp, spec=spec)


def _minmax_vjp(av: np.ndarray, out: np.ndarray, axis, keepdims: bool):
    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        out_k = out
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
            out_k = np.expand_dims(out, axis=axis)
        mask = (av == out_k)
        # split the cotangent equally across ties to keep the VJP a linear map
        denom = mask.sum(axis=axis, keepdims=True) if axis is not None \
            else mask.sum()
        return (mask * g / denom,)

    return vjp


def max(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Maximum over the given axis (ties share the cotangent equally)."""
    if isinstance(a, TangentArray):
        av = a.value
        out = np.max(av, axis=axis, keepdims=keepdims)
        out_k = np.expand_dims(out, axis=axis) \
            if axis is not None and not keepdims else out
        mask = (av == out_k)
        denom = mask.sum(axis=axis, keepdims=True) if axis is not None \
            else mask.sum()
        return _tangent_weighted_reduce(a, axis, keepdims, out, mask / denom)
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    out = np.max(av, axis=axis, keepdims=keepdims)
    parents = _traced_parents(a)
    spec = ("redminmax", "max", axis, keepdims, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("max", out, parents, _minmax_vjp(av, out, axis, keepdims),
                   spec=spec)


def min(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Minimum over the given axis (ties share the cotangent equally)."""
    if isinstance(a, TangentArray):
        av = a.value
        out = np.min(av, axis=axis, keepdims=keepdims)
        out_k = np.expand_dims(out, axis=axis) \
            if axis is not None and not keepdims else out
        mask = (av == out_k)
        denom = mask.sum(axis=axis, keepdims=True) if axis is not None \
            else mask.sum()
        return _tangent_weighted_reduce(a, axis, keepdims, out, mask / denom)
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    out = np.min(av, axis=axis, keepdims=keepdims)
    parents = _traced_parents(a)
    spec = ("redminmax", "min", axis, keepdims, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("min", out, parents, _minmax_vjp(av, out, axis, keepdims),
                   spec=spec)


def prod(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Product over the given axis (assumes no exact zeros for the VJP)."""
    if isinstance(a, TangentArray):
        av = a.value
        out = np.prod(av, axis=axis, keepdims=keepdims)
        out_k = np.expand_dims(out, axis=axis) \
            if axis is not None and not keepdims else out
        safe = np.where(av == 0, 1.0, av)
        return _tangent_weighted_reduce(a, axis, keepdims, out, out_k / safe)
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    out = np.prod(av, axis=axis, keepdims=keepdims)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        out_k = out
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
            out_k = np.expand_dims(out, axis=axis)
        safe = np.where(av == 0, 1.0, av)
        return (g * out_k / safe,)

    spec = ("prod", axis, keepdims, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("prod", out, parents, vjp, spec=spec)


def norm(a: Any, ord: int = 2) -> Any:
    """Flattened vector norm built from differentiable primitives.

    Only ``ord in (1, 2)`` is supported; the NPB verification norms are
    2-norms and max-norms (use :func:`max` with :func:`absolute` for the
    latter).
    """
    flat = reshape(a, (-1,))
    if ord == 1:
        return sum(absolute(flat))
    if ord == 2:
        return sqrt(sum(flat * flat))
    raise ValueError(f"unsupported norm order: {ord!r}")


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a: Any, shape) -> Any:
    """Reshape to ``shape`` (a view-like differentiable operation).

    ``shape`` is the *logical* target shape; under a batched probe sweep the
    probe axis is preserved in front of it.
    """
    if isinstance(a, TangentArray):
        out = np.reshape(a.value, shape)
        dt = np.reshape(a.tangent, (a.tangent.shape[0],) + out.shape)
        return TangentArray(out, dt)
    av = value_of(a)
    if _probe_batch(a) is not None:
        shape = (av.shape[0],) + ((shape,) if np.ndim(shape) == 0
                                  else tuple(shape))
    out = np.reshape(av, shape)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.reshape(g, av.shape),)

    spec = ("reshape", np.shape(out), av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("reshape", out, parents, vjp, spec=spec)


def ravel(a: Any) -> Any:
    """Flatten to one dimension."""
    return reshape(a, (-1,))


def transpose(a: Any, axes=None) -> Any:
    """Permute array axes (the probe axis, when present, stays in front)."""
    if isinstance(a, TangentArray):
        av, ta = a.value, a.tangent
        if axes is None:
            axes_t = (0,) + tuple(range(ta.ndim - 1, 0, -1))
        else:
            axes_t = (0,) + tuple(ax + 1 if ax >= 0 else ta.ndim + ax
                                  for ax in axes)
        return TangentArray(np.transpose(av, axes), np.transpose(ta, axes_t))
    av = value_of(a)
    if _probe_batch(a) is not None:
        if axes is None:
            axes = (0,) + tuple(range(av.ndim - 1, 0, -1))
        else:
            axes = (0,) + tuple(ax + 1 if ax >= 0 else av.ndim + ax
                                for ax in axes)
    out = np.transpose(av, axes)
    parents = _traced_parents(a)
    if axes is None:
        inv_axes = None
    else:
        inv_axes = np.argsort(axes)

    def vjp(g: np.ndarray) -> tuple:
        return (np.transpose(g, inv_axes),)

    spec = ("transpose", None if axes is None else tuple(axes), inv_axes) \
        if _CAPTURE.capture is not None else None
    return _record("transpose", out, parents, vjp, spec=spec)


def swapaxes(a: Any, axis1: int, axis2: int) -> Any:
    """Interchange two axes."""
    if isinstance(a, TangentArray):
        nd = a.tangent.shape[0]
        return TangentArray(
            np.swapaxes(a.value, axis1, axis2),
            np.swapaxes(a.tangent, _probe_shift_axis(axis1, nd),
                        _probe_shift_axis(axis2, nd)))
    nb = _probe_batch(a)
    axis1 = _probe_shift_axis(axis1, nb)
    axis2 = _probe_shift_axis(axis2, nb)
    av = value_of(a)
    out = np.swapaxes(av, axis1, axis2)
    parents = _traced_parents(a)

    spec = ("swapaxes", axis1, axis2) \
        if _CAPTURE.capture is not None else None

    def vjp(g: np.ndarray) -> tuple:
        return (np.swapaxes(g, axis1, axis2),)

    return _record("swapaxes", out, parents, vjp, spec=spec)


def moveaxis(a: Any, source, destination) -> Any:
    """Move array axes to new positions."""
    if isinstance(a, TangentArray):
        nd = a.tangent.shape[0]
        return TangentArray(
            np.moveaxis(a.value, source, destination),
            np.moveaxis(a.tangent, _probe_shift_axis(source, nd),
                        _probe_shift_axis(destination, nd)))
    nb = _probe_batch(a)
    source = _probe_shift_axis(source, nb)
    destination = _probe_shift_axis(destination, nb)
    av = value_of(a)
    out = np.moveaxis(av, source, destination)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.moveaxis(g, destination, source),)

    spec = ("moveaxis", source, destination) \
        if _CAPTURE.capture is not None else None
    return _record("moveaxis", out, parents, vjp, spec=spec)


def broadcast_to(a: Any, shape) -> Any:
    """Broadcast to a new (logical) shape."""
    if isinstance(a, TangentArray):
        shape = tuple(shape)
        out = np.array(np.broadcast_to(a.value, shape))
        return _tangent_result(out, _tangent_lift(a.tangent, len(shape)),
                               a.tangent.shape[0])
    av = value_of(a)
    if _probe_batch(a) is not None:
        shape = (av.shape[0],) + tuple(shape)
    out = np.broadcast_to(av, shape)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (_unbroadcast(g, av.shape),)

    spec = ("broadcast_to", np.shape(out), av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("broadcast_to", np.array(out), parents, vjp, spec=spec)


def squeeze(a: Any, axis=None) -> Any:
    """Remove size-1 dimensions (never the probe axis)."""
    if isinstance(a, TangentArray):
        out = np.squeeze(a.value, axis=axis)
        dt = np.reshape(a.tangent, (a.tangent.shape[0],) + out.shape)
        return TangentArray(out, dt)
    av = value_of(a)
    nb = _probe_batch(a)
    if nb is not None:
        if axis is None:
            axis = tuple(ax for ax in range(1, av.ndim)
                         if av.shape[ax] == 1)
        else:
            axis = _probe_shift_axis(axis, nb)
    out = np.squeeze(av, axis=axis)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.reshape(g, av.shape),)

    spec = ("squeeze", axis, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("squeeze", out, parents, vjp, spec=spec)


def expand_dims(a: Any, axis) -> Any:
    """Insert a size-1 dimension at (logical) ``axis``."""
    if isinstance(a, TangentArray):
        out = np.expand_dims(a.value, axis)
        dt = np.reshape(a.tangent, (a.tangent.shape[0],) + out.shape)
        return TangentArray(out, dt)
    axis = _probe_shift_axis(axis, _probe_batch(a))
    av = value_of(a)
    out = np.expand_dims(av, axis)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.reshape(g, av.shape),)

    spec = ("expand_dims", axis, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("expand_dims", out, parents, vjp, spec=spec)


def concatenate(arrays: Sequence[Any], axis: int = 0) -> Any:
    """Join arrays along an existing (logical) axis."""
    arrays = list(arrays)
    if _any_tangent(*arrays):
        return _tangent_join(np.concatenate, arrays, axis)
    values = [value_of(a) for a in arrays]
    nb = _probe_batch(*arrays)
    if nb is not None:
        axis = _probe_shift_axis(axis, nb)
        # plain operands gain the probe axis so every part is batched
        values = [v if _is_traced(arr)
                  else np.broadcast_to(v, (nb,) + np.shape(v))
                  for arr, v in zip(arrays, values)]
    out = np.concatenate(values, axis=axis)
    parents = _traced_parents(*arrays)
    # offsets of every *traced* input along the concat axis
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        for arr, val, start, stop in zip(arrays, values, offsets[:-1], offsets[1:]):
            if isinstance(arr, ADArray) and arr.node is not None:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                grads.append(g[tuple(index)])
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        parts = tuple(("t", None) if _is_traced(arr) else ("c", val)
                      for arr, val in zip(arrays, values))
        spec = ("concat", axis, parts, tuple(int(o) for o in offsets))
    return _record("concatenate", out, parents, vjp, spec=spec)


def stack(arrays: Sequence[Any], axis: int = 0) -> Any:
    """Join arrays along a new (logical) axis."""
    arrays = list(arrays)
    if _any_tangent(*arrays):
        return _tangent_join(np.stack, arrays, axis)
    values = [value_of(a) for a in arrays]
    nb = _probe_batch(*arrays)
    if nb is not None:
        axis = _probe_shift_axis(axis, nb)
        values = [v if _is_traced(arr)
                  else np.broadcast_to(v, (nb,) + np.shape(v))
                  for arr, v in zip(arrays, values)]
    out = np.stack(values, axis=axis)
    parents = _traced_parents(*arrays)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        for i, arr in enumerate(arrays):
            if isinstance(arr, ADArray) and arr.node is not None:
                grads.append(np.take(g, i, axis=axis))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        parts = tuple(("t", None) if _is_traced(arr) else ("c", val)
                      for arr, val in zip(arrays, values))
        spec = ("stack", axis, parts)
    return _record("stack", out, parents, vjp, spec=spec)


def flip(a: Any, axis=None) -> Any:
    """Reverse element order along the given (logical) axis."""
    if isinstance(a, TangentArray):
        ta = a.tangent
        axis_t = tuple(range(1, ta.ndim)) if axis is None \
            else _probe_shift_axis(axis, ta.shape[0])
        return TangentArray(np.flip(a.value, axis=axis),
                            np.flip(ta, axis=axis_t))
    av = value_of(a)
    nb = _probe_batch(a)
    if nb is not None:
        axis = tuple(range(1, av.ndim)) if axis is None \
            else _probe_shift_axis(axis, nb)
    out = np.flip(av, axis=axis)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.flip(g, axis=axis),)

    spec = ("flip", axis) if _CAPTURE.capture is not None else None
    return _record("flip", out, parents, vjp, spec=spec)


def roll(a: Any, shift, axis=None) -> Any:
    """Circularly shift elements along a (logical) axis."""
    if isinstance(a, TangentArray):
        ta = a.tangent
        if axis is None:
            # numpy's axis=None rolls the flattened array; per direction
            # that means rolling each flattened direction slice
            out = np.roll(a.value, shift)
            dt = np.roll(ta.reshape(ta.shape[0], -1), shift,
                         axis=1).reshape(ta.shape)
            return TangentArray(out, dt)
        return TangentArray(
            np.roll(a.value, shift, axis=axis),
            np.roll(ta, shift, axis=_probe_shift_axis(axis, ta.shape[0])))
    av = value_of(a)
    nb = _probe_batch(a)
    if nb is not None and axis is None:
        # numpy's axis=None rolls the flattened array; per probe that means
        # rolling each flattened probe slice
        flat_shape = (av.shape[0], -1)
        out = np.roll(av.reshape(flat_shape), shift, axis=1).reshape(av.shape)
        parents = _traced_parents(a)

        def vjp_flat(g: np.ndarray) -> tuple:
            g2 = np.asarray(g).reshape(flat_shape)
            return (np.roll(g2, -np.asarray(shift) if np.ndim(shift)
                            else -shift, axis=1).reshape(av.shape),)

        spec = ("roll_flat", shift, flat_shape, av.shape) \
            if _CAPTURE.capture is not None else None
        return _record("roll", out, parents, vjp_flat, spec=spec)
    axis = _probe_shift_axis(axis, nb)
    out = np.roll(av, shift, axis=axis)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.roll(g, -np.asarray(shift) if np.ndim(shift) else -shift,
                        axis=axis),)

    spec = ("roll", shift, axis) if _CAPTURE.capture is not None else None
    return _record("roll", out, parents, vjp, spec=spec)


def pad_zero(a: Any, pad_width) -> Any:
    """Zero-pad an array (``numpy.pad`` with constant zeros).

    ``pad_width`` refers to the logical dimensions; the probe axis (when
    present) is never padded.
    """
    if isinstance(a, TangentArray):
        av, ta = a.value, a.tangent
        norm_pad = np.asarray(np.broadcast_to(
            np.asarray(pad_width, dtype=np.int64).reshape(-1, 2)
            if np.ndim(pad_width) > 0 else [[pad_width, pad_width]],
            (av.ndim, 2)))
        return TangentArray(
            np.pad(av, norm_pad, mode="constant"),
            np.pad(ta, np.vstack([[[0, 0]], norm_pad]), mode="constant"))
    av = value_of(a)
    nb = _probe_batch(a)
    lndim = av.ndim - 1 if nb is not None else av.ndim
    norm_pad = np.asarray(np.broadcast_to(np.asarray(pad_width, dtype=np.int64)
                                          .reshape(-1, 2) if np.ndim(pad_width) > 0
                                          else [[pad_width, pad_width]],
                                          (lndim, 2)))
    if nb is not None:
        norm_pad = np.vstack([[[0, 0]], norm_pad])
    out = np.pad(av, norm_pad, mode="constant")
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        index = tuple(slice(before, before + size)
                      for (before, _after), size in zip(norm_pad, av.shape))
        return (g[index],)

    spec = ("pad_zero", norm_pad, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("pad_zero", out, parents, vjp, spec=spec)


# ---------------------------------------------------------------------------
# selection and indexing
# ---------------------------------------------------------------------------

def _index_values(index: Any) -> Any:
    """Strip AD wrappers from an index expression (indices are data)."""
    if isinstance(index, (ADArray, TangentArray)):
        return index.value
    if isinstance(index, tuple):
        return tuple(_index_values(i) for i in index)
    return index


def _is_advanced(index: Any) -> bool:
    """True when the index expression uses integer/boolean array indexing."""
    if isinstance(index, (np.ndarray, list)):
        return True
    if isinstance(index, tuple):
        return builtins.any(isinstance(i, (np.ndarray, list)) for i in index)
    return False


def _gather(av: np.ndarray, idx: Any, contig: bool) -> np.ndarray:
    """``av[idx]``, copied to C order when ``contig``.

    Under a probe axis numpy places the advanced-index subspace before the
    leading slices in memory; C order lays every probe row out exactly like
    the unbatched gather, so downstream reductions sum in the same order.
    Full slices followed by one integer array -- every batched gather by
    an index array -- is ``np.take`` on that axis: the same values and
    layout without the transposed intermediate.
    """
    last = idx[-1] if isinstance(idx, tuple) and idx else None
    if contig and isinstance(last, np.ndarray) and last.dtype.kind in "iu" \
            and builtins.all(isinstance(s, slice) and s == slice(None)
                             for s in idx[:-1]):
        return np.take(av, last, axis=len(idx) - 1)
    out = av[idx]
    return np.ascontiguousarray(out) if contig else out


def _scatter_positions(shape: tuple, idx: Any) -> np.ndarray:
    """Flat positions of ``zeros(shape)[idx]``, in the gather's shape."""
    if len(shape) == 1 and isinstance(idx, np.ndarray) \
            and idx.dtype == np.intp and np.all(idx >= 0):
        return idx      # a 1-D gather's positions are its own indices
    return _gather(np.arange(math.prod(shape), dtype=np.intp).reshape(shape),
                   idx, True)


def _scatter_add(pos: np.ndarray, g: Any, shape: tuple) -> np.ndarray:
    """``np.add.at(zeros(shape), idx, g)`` over precomputed positions.

    A float64 scatter is one ``np.bincount``: it adds the weights into
    zeros in input (C) order, the order ``np.add.at`` walks the index in,
    so every element gets the same additions in the same order -- the
    same bits, -0.0, NaN and overflow included.  The one exception is
    where two NaNs of opposite sign meet (``inf - inf`` gives a negative
    NaN): IEEE 754 leaves the sum's sign open and the two loops keep
    different operands'.  Other dtypes and empty scatters take
    ``np.add.at`` (``bincount`` has no complex weights, and returns
    integers when empty).
    """
    g = np.asarray(g)
    if g.shape != pos.shape:
        g = np.broadcast_to(g, pos.shape)
    size = math.prod(shape)
    if g.dtype == np.float64 and pos.size:
        return np.bincount(pos.ravel(), weights=g.ravel(),
                           minlength=size).reshape(shape)
    grad = np.zeros(size, dtype=np.result_type(g, np.float64))
    np.add.at(grad, pos.ravel(), g.ravel())
    return grad.reshape(shape)


def getitem(a: Any, index: Any) -> Any:
    """Differentiable ``a[index]`` (basic slicing or advanced indexing).

    Index expressions always address the logical dimensions; under a
    batched probe sweep a full slice of the probe axis is prepended, so
    every probe slice is indexed identically.
    """
    if isinstance(a, TangentArray):
        av, ta = a.value, a.tangent
        idx = _index_values(index)
        dt = _gather(ta, _probe_index(idx, ta.shape[0]), _is_advanced(idx))
        return TangentArray(av[idx], dt)
    av = value_of(a)
    idx = _index_values(index)
    nb = _probe_batch(a)
    full_idx = _probe_index(idx, nb)
    advanced = _is_advanced(idx)
    contig = nb is not None and advanced
    out = _gather(av, full_idx, contig)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        if advanced:
            return (_scatter_add(_scatter_positions(av.shape, full_idx), g,
                                 av.shape),)
        grad = np.zeros(av.shape, dtype=np.result_type(g, np.float64))
        grad[full_idx] += g
        return (grad,)

    spec = ("getitem", full_idx, advanced, contig, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("getitem", out, parents, vjp, meta={"index": idx},
                   spec=spec)


def take(a: Any, indices: Any, axis=None) -> Any:
    """Differentiable ``numpy.take`` (``axis`` addresses logical dims)."""
    if isinstance(a, TangentArray):
        av, ta = a.value, a.tangent
        idx = _index_values(indices)
        nd = ta.shape[0]
        out = np.take(av, idx, axis=axis)
        if axis is None:
            dt = np.take(ta.reshape(nd, -1), idx, axis=1)
            dt = dt.reshape((nd,) + np.shape(out))
        else:
            ax1 = _probe_shift_axis(normalize_axis_index(axis, av.ndim), nd)
            dt = _gather(ta, (slice(None),) * ax1 + (np.asarray(idx),), True)
        return TangentArray(out, dt)
    av = value_of(a)
    idx = np.asarray(_index_values(indices))
    nb = _probe_batch(a)
    if nb is not None and axis is None:
        # numpy's axis=None takes from the flattened array; per probe
        # that means taking from each flattened probe slice
        src_shape = (av.shape[0], -1)
        take_idx = (slice(None), idx)
        out = np.take(av.reshape(src_shape), idx, axis=1)
    elif nb is not None:
        # a single advanced index at `axis` is exactly np.take(..., axis)
        src_shape = av.shape
        logical = normalize_axis_index(axis, av.ndim - 1)
        take_idx = (slice(None),) * _probe_shift_axis(logical, nb) + (idx,)
        out = _gather(av, take_idx, True)
    else:
        src_shape = (-1,) if axis is None else av.shape
        take_idx = idx if axis is None \
            else (slice(None),) * (axis % av.ndim) + (idx,)
        out = np.take(av, idx, axis=axis)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        src = av.reshape(src_shape)
        pos = _scatter_positions(src.shape, take_idx)
        return (_scatter_add(pos, g, src.shape).reshape(av.shape),)

    return _record("take", out, parents, vjp,
                   meta={"indices": idx, "axis": axis})


def _index_roles(a: Any, b: Any) -> tuple[str, ...]:
    """Operand roles of an indexed-write primitive, aligned with parents.

    Consumed by the activity analysis (:mod:`repro.ad.activity`), which
    must distinguish a leaf appearing as the written-into *target* from a
    leaf appearing as the *value/addend* operand.
    """
    return tuple(role for role, x in (("target", a), ("value", b))
                 if _is_traced(x))


def index_update(a: Any, index: Any, b: Any) -> Any:
    """Functional update: a copy of ``a`` with ``a[index] = b``.

    This is the primitive behind ``ADArray.__setitem__``.  The cotangent of
    ``a`` is the incoming cotangent with the updated region zeroed out (those
    elements of ``a`` were overwritten, so they no longer influence the
    output); the cotangent of ``b`` is the cotangent of the updated region.
    """
    if _any_tangent(a, b):
        return _tangent_index_write(a, index, b, add=False)
    av, bv = value_of(a), value_of(b)
    idx = _index_values(index)
    nb = _probe_batch(a, b)
    full_idx = _probe_index(idx, nb)
    spec = None
    if _CAPTURE.capture is not None:
        lift = (nb,) + np.shape(av) \
            if nb is not None and not _is_traced(a) else None
        spec = ("index_update", full_idx, _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv,
                np.shape(bv), nb is not None, lift)
    if nb is not None and not _is_traced(a):
        # plain target written with batched values: the copy gains the axis.
        # Copy in C order -- an order-'K' copy of the broadcast view would
        # give the probe axis the smallest stride, changing downstream
        # reduction orders away from the per-probe layout.
        av = np.broadcast_to(av, (nb,) + np.shape(av))
        out = np.array(av, copy=True, order="C")
    else:
        out = np.array(av, copy=True)
    out[full_idx] = bv
    parents = _traced_parents(a, b)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if isinstance(a, ADArray) and a.node is not None:
            ga = np.array(g, copy=True)
            ga[full_idx] = 0.0
            grads.append(ga)
        if isinstance(b, ADArray) and b.node is not None:
            gb = np.asarray(g)[full_idx]
            grads.append(_unbroadcast_keep_probe(gb, np.shape(bv),
                                                 nb is not None))
        return tuple(grads)

    return _record("index_update", out, parents, vjp,
                   meta={"index": idx, "roles": _index_roles(a, b)},
                   spec=spec)


def index_add(a: Any, index: Any, b: Any) -> Any:
    """Functional scatter-add: a copy of ``a`` with ``a[index] += b``
    (unbuffered, i.e. repeated indices accumulate as ``np.add.at`` does)."""
    if _any_tangent(a, b):
        return _tangent_index_write(a, index, b, add=True)
    av, bv = value_of(a), value_of(b)
    idx = _index_values(index)
    nb = _probe_batch(a, b)
    full_idx = _probe_index(idx, nb)
    spec = None
    if _CAPTURE.capture is not None:
        lift = (nb,) + np.shape(av) \
            if nb is not None and not _is_traced(a) else None
        spec = ("index_add", full_idx, _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv,
                np.shape(bv), nb is not None, lift)
    if nb is not None and not _is_traced(a):
        # see index_update: lift the plain target in C order
        av = np.broadcast_to(av, (nb,) + np.shape(av))
        out = np.array(av, copy=True, order="C")
    else:
        out = np.array(av, copy=True)
    np.add.at(out, full_idx, bv)
    parents = _traced_parents(a, b)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if isinstance(a, ADArray) and a.node is not None:
            grads.append(np.asarray(g))
        if isinstance(b, ADArray) and b.node is not None:
            gb = np.asarray(g)[full_idx]
            grads.append(_unbroadcast_keep_probe(gb, np.shape(bv),
                                                 nb is not None))
        return tuple(grads)

    return _record("index_add", out, parents, vjp,
                   meta={"index": idx, "roles": _index_roles(a, b)},
                   spec=spec)


def where(cond: Any, a: Any, b: Any) -> Any:
    """Elementwise select; the condition is treated as non-differentiable."""
    if _any_tangent(a, b):
        cv = value_of(cond).astype(bool)
        av, ta = _tangent_parts(a)
        bv, tb = _tangent_parts(b)
        nd = _tangent_dirs(a, b)
        out = np.where(cv, av, bv)
        target = builtins.max(av.ndim, bv.ndim, cv.ndim)
        dt = None
        if ta is not None:
            dt = _tangent_lift(ta, target) * cv
        if tb is not None:
            dtb = _tangent_lift(tb, target) * ~cv
            dt = dtb if dt is None else dt + dtb
        return _tangent_result(out, dt, nd)
    cv = value_of(cond).astype(bool)
    av0, bv0 = value_of(a), value_of(b)
    nb = _probe_batch(a, b)
    if nb is not None:
        av, bv = _probe_align(nb, (av0, _is_traced(a)), (bv0, _is_traced(b)))
    else:
        av, bv = av0, bv0
    out = np.where(cv, av, bv)
    parents = _traced_parents(a, b)
    a_shape, b_shape = np.shape(av0), np.shape(bv0)
    a_lift, b_lift = np.shape(av), np.shape(bv)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if isinstance(a, ADArray) and a.node is not None:
            grads.append(_probe_restore(_unbroadcast(g * cv, a_lift),
                                        a_shape))
        if isinstance(b, ADArray) and b.node is not None:
            grads.append(_probe_restore(_unbroadcast(g * (~cv), b_lift),
                                        b_shape))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        spec = ("where", cv, _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv,
                a_shape, b_shape, a_lift, b_lift)
    return _record("where", out, parents, vjp, spec=spec)


def copy(a: Any) -> Any:
    """Differentiable identity copy."""
    if isinstance(a, TangentArray):
        return TangentArray(np.array(a.value, copy=True),
                            np.array(a.tangent, copy=True))
    av = value_of(a)
    out = np.array(av, copy=True)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (g,)

    spec = ("copy",) if _CAPTURE.capture is not None else None
    return _record("copy", out, parents, vjp, spec=spec)


def astype(a: Any, dtype) -> Any:
    """Cast to ``dtype``.

    Casting to a floating dtype keeps the trace (identity VJP); casting to an
    integer or boolean dtype detaches the result, because derivatives through
    integer data are identically zero.
    """
    if isinstance(a, TangentArray):
        dtype = np.dtype(dtype)
        out = a.value.astype(dtype)
        if not np.issubdtype(dtype, np.floating):
            return out
        return TangentArray(out, a.tangent.astype(dtype))
    av = value_of(a)
    dtype = np.dtype(dtype)
    out = av.astype(dtype)
    if not np.issubdtype(dtype, np.floating):
        return out
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.asarray(g, dtype=av.dtype),)

    spec = ("astype", dtype.str, av.dtype.str) \
        if _CAPTURE.capture is not None else None
    return _record("astype", out, parents, vjp, spec=spec)


def detach(a: Any) -> np.ndarray:
    """Return the concrete value, cutting the AD graph."""
    return np.array(value_of(a), copy=True)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Any, b: Any) -> Any:
    """Matrix product following :func:`numpy.matmul` semantics.

    Supports 1-D and 2-D operands and batched stacks of matrices (the cases
    exercised by the NPB kernels: DFT matrices, block solves and dot
    products).  Under a batched probe sweep the traced operands' *logical*
    ranks decide the vector/matrix semantics and the probe axis broadcasts
    as a leading batch dimension.
    """
    if _any_tangent(a, b):
        return _tangent_matmul(a, b)
    nb = _probe_batch(a, b)
    if nb is not None:
        return _probe_matmul(a, b, nb)
    av, bv = value_of(a), value_of(b)
    out = np.matmul(av, bv)
    parents = _traced_parents(a, b)

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        grads = []
        if isinstance(a, ADArray) and a.node is not None:
            grads.append(_matmul_grad_a(g, av, bv))
        if isinstance(b, ADArray) and b.node is not None:
            grads.append(_matmul_grad_b(g, av, bv))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        spec = ("matmul", _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv)
    return _record("matmul", out, parents, vjp, spec=spec)


def _probe_matmul(a: Any, b: Any, nb: int) -> Any:
    """Probe-batched matmul: logical vectors are lifted to matrices, the
    probe axis broadcasts as a batch dimension, and the inserted singleton
    axes are squeezed back out of both the value and the cotangents."""
    av, bv = value_of(a), value_of(b)
    la = av.ndim - 1 if _is_traced(a) else av.ndim
    lb = bv.ndim - 1 if _is_traced(b) else bv.ndim
    if la == 0 or lb == 0:
        raise ProbeBatchingError("matmul operands must be at least 1-D")
    av_m = av[..., None, :] if la == 1 else av
    bv_m = bv[..., :, None] if lb == 1 else bv
    out_m = np.matmul(av_m, bv_m)
    if la == 1 and lb == 1:
        out = out_m[..., 0, 0]
    elif la == 1:
        out = out_m[..., 0, :]
    elif lb == 1:
        out = out_m[..., :, 0]
    else:
        out = out_m
    parents = _traced_parents(a, b)

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        if la == 1 and lb == 1:
            g_m = g[..., None, None]
        elif la == 1:
            g_m = g[..., None, :]
        elif lb == 1:
            g_m = g[..., :, None]
        else:
            g_m = g
        grads = []
        if _is_traced(a):
            ga = np.matmul(g_m, np.swapaxes(bv_m, -1, -2))
            grads.append(_unbroadcast_keep_probe(ga, av_m.shape,
                                                 True).reshape(av.shape))
        if _is_traced(b):
            gb = np.matmul(np.swapaxes(av_m, -1, -2), g_m)
            grads.append(_unbroadcast_keep_probe(gb, bv_m.shape,
                                                 True).reshape(bv.shape))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        spec = ("matmul_probe", _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv, la, lb)
    return _record("matmul", out, parents, vjp, spec=spec)


def _matmul_grad_a(g: np.ndarray, av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    if av.ndim == 1 and bv.ndim == 1:          # vector . vector -> scalar
        return g * bv
    if av.ndim == 1:                            # (k,) @ (..., k, n)
        ga = np.matmul(np.expand_dims(g, -2), np.swapaxes(bv, -1, -2))
        ga = np.squeeze(ga, axis=-2)
        return _unbroadcast(ga, av.shape)
    if bv.ndim == 1:                            # (..., m, k) @ (k,)
        ga = np.matmul(np.expand_dims(g, -1), np.expand_dims(bv, 0))
        return _unbroadcast(ga, av.shape)
    ga = np.matmul(g, np.swapaxes(bv, -1, -2))
    return _unbroadcast(ga, av.shape)


def _matmul_grad_b(g: np.ndarray, av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    if av.ndim == 1 and bv.ndim == 1:
        return g * av
    if av.ndim == 1:                            # (k,) @ (..., k, n)
        gb = np.matmul(np.expand_dims(av, -1), np.expand_dims(g, -2))
        return _unbroadcast(gb, bv.shape)
    if bv.ndim == 1:                            # (..., m, k) @ (k,)
        gb = np.matmul(np.swapaxes(av, -1, -2), np.expand_dims(g, -1))
        gb = np.squeeze(gb, axis=-1)
        return _unbroadcast(gb, bv.shape)
    gb = np.matmul(np.swapaxes(av, -1, -2), g)
    return _unbroadcast(gb, bv.shape)


def dot(a: Any, b: Any) -> Any:
    """Alias of :func:`matmul` for 1-D/2-D operands."""
    return matmul(a, b)


def outer(a: Any, b: Any) -> Any:
    """Outer product of two vectors."""
    a2 = reshape(a, (-1, 1))
    b2 = reshape(b, (1, -1))
    return multiply(a2, b2)


# ---------------------------------------------------------------------------
# constructors / passthrough helpers (never traced on their own)
# ---------------------------------------------------------------------------

def zeros(shape, dtype=np.float64) -> np.ndarray:
    """Plain ``numpy.zeros`` (constants are never traced)."""
    return np.zeros(shape, dtype=dtype)


def ones(shape, dtype=np.float64) -> np.ndarray:
    """Plain ``numpy.ones``."""
    return np.ones(shape, dtype=dtype)


def full(shape, fill_value, dtype=np.float64) -> np.ndarray:
    """Plain ``numpy.full``."""
    return np.full(shape, fill_value, dtype=dtype)


def zeros_like(a: Any) -> np.ndarray:
    """Zeros with the shape/dtype of ``a``'s concrete value."""
    return np.zeros_like(value_of(a))


def ones_like(a: Any) -> np.ndarray:
    """Ones with the shape/dtype of ``a``'s concrete value."""
    return np.ones_like(value_of(a))


def arange(*args, **kwargs) -> np.ndarray:
    """Plain ``numpy.arange``."""
    return np.arange(*args, **kwargs)


def linspace(*args, **kwargs) -> np.ndarray:
    """Plain ``numpy.linspace``."""
    return np.linspace(*args, **kwargs)


def asarray(a: Any, dtype=None) -> Any:
    """Identity on ADArrays/TangentArrays; ``numpy.asarray`` otherwise."""
    if isinstance(a, (ADArray, TangentArray)):
        return a if dtype is None else astype(a, dtype)
    return np.asarray(a, dtype=dtype)


def array(a: Any, dtype=None) -> Any:
    """Copying variant of :func:`asarray`."""
    if isinstance(a, (ADArray, TangentArray)):
        out = copy(a)
        return out if dtype is None else astype(out, dtype)
    return np.array(a, dtype=dtype)
