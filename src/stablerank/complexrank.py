"""Lower bounds for the stable rank of complex tensors, in double precision.

Over the complex numbers the basis-free stable rank equals the supremum,
over invertible per-mode transforms g, of the smallest weighted ratio
``alpha_i * |g.v|^2 / |flatten(g.v, i)|_sigma^2``.  Evaluating that ratio at
any particular g therefore gives a lower bound.  This module evaluates it,
improves g by a damped mode-wise whitening iteration, and reports the best
bound seen together with a stationarity residual measuring how far the
final point is from the positive-semidefiniteness optimality condition.
Each whitening step multiplies only the whitened mode; the other modes are
left as they are.  An ascent builds one flattening plan per tensor shape
(``_plan``): for each mode the transpositions that store a whitened
product, the damped identity of a step and the place of its flattening
among the stacks; and for each mode size one gather index that stacks the
flattenings of that size.  The loop reads them instead of
rebuilding them.  Every evaluation of the ratios, and the residual, takes
per mode size one gather, one batched Gram product and one ``eigvalsh``
over the stack, and does its scalar arithmetic on Python floats in mode
order.  On stacked input numpy runs the same LAPACK and BLAS routine once
per matrix, so every bit equals that of ``flatten`` and ``spectral_norm``
applied one mode at a time.  A step reads the whitened mode's flattening
from the stacks that gave it its ratios.

Every eigensolve calls LAPACK through numpy's own gufuncs
(``numpy.linalg._umath_linalg``), under the error state that
``np.linalg`` sets, so each value and each non-convergence error is the
one ``np.linalg.eigvalsh`` or ``eigh`` gives.  numpy's wrappers only check
and convert their input, which costs about as much as LAPACK on these
small matrices, and every input here is a square complex stack by
construction.

Everything here is double precision and nothing is checked exactly; the
bounds are tolerance-qualified, not certified.  This is the only module that
knows dense complex arrays and the only one that imports numpy, so only the
``grank`` command loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .ranks import check_count, check_tolerance, grank_upper_search
from .tensors import SparseTensor, as_weight, modulus_of

_STEP = 0.3  # damping of each whitening step in ascend


def flatten(a: np.ndarray, mode: int) -> np.ndarray:
    """Matricize a dense array: mode ``mode`` indexes rows, the remaining
    modes index columns lexicographically in ascending mode order."""
    arr = np.asarray(a)
    if not 0 <= mode < arr.ndim:
        raise ValueError(f"mode {mode} out of range for order {arr.ndim}")
    axes = (mode,) + tuple(k for k in range(arr.ndim) if k != mode)
    return arr.transpose(axes).reshape(arr.shape[mode], -1)


class _EntryOverflow(ValueError):
    """An entry of a rational tensor, or the norm of its entries, does not
    fit in double precision; the message names the entry."""


def to_dense_complex(v: SparseTensor) -> np.ndarray:
    """Embed a rational sparse tensor into a dense complex array.

    An entry too large for a double raises ``ValueError`` naming it, and so
    does a tensor whose norm overflows one, naming its largest entry.
    """
    if modulus_of(v.domain) is not None:
        raise ValueError("mod-p tensors have no canonical complex embedding")
    out = np.zeros(v.shape, dtype=complex)
    for idx, val in v.entries.items():
        try:
            out[idx] = float(val)
        except OverflowError:
            raise _EntryOverflow(f"entry {list(idx)} overflows double precision") from None
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(out)
    if not np.isfinite(norm):
        idx = [int(i) for i in np.unravel_index(np.argmax(np.abs(out)), out.shape)]
        raise _EntryOverflow(f"tensor norm overflows double precision at its largest entry {idx}")
    return out


def _raise_nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(h)`` for a complex Hermitian matrix or stack of
    them: the gufunc that numpy dispatches to, called under numpy's error
    state, so a LAPACK failure raises the same ``LinAlgError``.  numpy's
    checks and conversions are left out, since every caller hands in a
    square complex stack."""
    with np.errstate(call=_raise_nonconvergence, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.eigvalsh_lo(h, signature="D->d")


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(h)``, eigenvalues and eigenvectors, as ``_eigvalsh``
    gives ``np.linalg.eigvalsh(h)``."""
    with np.errstate(call=_raise_nonconvergence, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.eigh_lo(h, signature="D->dD")


def spectral_norm(m) -> float:
    """Largest singular value: the root of the top eigenvalue of the
    smaller of the two Gram matrices (LAPACK ``eigvalsh``).

    The matrix is divided by its largest entry first, so the Gram matrix
    cannot overflow.  The zero matrix has norm 0.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty matrix")
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return 0.0
    a = a / scale
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    return float(scale * math.sqrt(_eigvalsh(gram)[-1]))


def mode_apply(v, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Apply one matrix per mode to a dense tensor."""
    a = np.asarray(v, dtype=complex)
    if len(mats) != a.ndim:
        raise ValueError("need exactly one matrix per mode")
    for i, g in enumerate(mats):
        a = np.moveaxis(np.tensordot(np.asarray(g, dtype=complex),
                                     np.moveaxis(a, i, 0), axes=1), 0, i)
    return a


def _identity_group(shape) -> list[np.ndarray]:
    return [np.eye(n, dtype=complex) for n in shape]


class _Mode(NamedTuple):
    """One mode's entry of a flattening plan; see ``_plan``."""

    product: tuple[int, ...]  # the product's shape: the mode's size, then the others'
    stored: tuple[int, ...]  # product axes in the order last mode, 0, 1, ..
    view: tuple[int, ...]  # the stored copy's axes back in mode order
    damped: np.ndarray  # (1 - _STEP) * I, a whitening step's first term
    group: int  # the plan's group of the mode's size
    slot: int  # the mode's place in its group


class _Plan(NamedTuple):
    """A tensor shape's flattening plan; see ``_plan``."""

    modes: list[_Mode]  # one per mode, in mode order
    groups: list[tuple[tuple[int, ...], np.ndarray]]  # (modes, gather index) per size


def _plan(shape: tuple[int, ...]) -> _Plan:
    """The flattening plan of a tensor shape: one ``_Mode`` per mode, and
    the modes grouped by size with one gather index per group.

    A mode-i product holds the modes in the order (i, 0, .., i-1, i+1, ..),
    the axes of ``flatten(w, i)``; ``stored`` takes them in the order
    (d-1, 0, .., d-2), and ``view`` shows a copy so ordered in mode order.
    Modes of one size have flattenings of one shape (rows, cols): a group's
    index, of shape (modes, rows, cols), holds the position of each
    flattening entry among the C-ordered entries, so ``np.take(w, index)``
    stacks the group's flattenings.  Groups are in the order of their first
    mode, and mode i's flattening is entry ``slot`` of group ``group``.
    """
    d = len(shape)
    last_first = [d - 1] + list(range(d - 1))
    positions = np.arange(math.prod(shape)).reshape(shape)
    modes, by_size = [], {}
    for i, n in enumerate(shape):
        axes = (i,) + tuple(k for k in range(d) if k != i)
        members = by_size.setdefault(n, [])
        modes.append(_Mode(
            product=tuple(shape[k] for k in axes),
            stored=tuple(0 if k == i else k + (k < i) for k in last_first),
            view=tuple(range(1, d)) + (0,),
            damped=(1.0 - _STEP) * np.eye(n),
            group=list(by_size).index(n),
            slot=len(members),
        ))
        members.append((i, positions.transpose(axes).reshape(n, math.prod(shape[k] for k in axes[1:]))))
    groups = [(tuple(i for i, _ in members), np.stack([index for _, index in members]))
              for members in by_size.values()]
    return _Plan(modes, groups)


def _flattened_ratios(w: np.ndarray, alpha_f: Sequence[float],
                      plan: _Plan) -> tuple[float, list[float], list[np.ndarray]]:
    """``|w|^2``, the list of ``alpha_i * |w|^2 / spectral_norm(flatten(w, i))^2``
    over the modes, and per group of ``plan``, the plan of ``w.shape``, the
    stack of the group's flattenings of ``w``.

    Every flattening holds the same entries, so one division by the largest
    entry serves them all.  The entries are gathered from one C-ordered
    copy of ``w``, one gather per group of modes of one size, and each
    stack is divided by the largest entry: every entry is the one a gather
    of the scaled tensor reads.  Each group then takes one stacked Gram
    product (of the rows, or of the columns where a flattening is taller
    than wide) and one stacked ``eigvalsh``; on stacked input numpy runs
    the same LAPACK and BLAS routine once per matrix, so every value is the
    one ``spectral_norm`` computes.  The scalars are Python floats, taken in
    mode order; each operation is the one ``spectral_norm`` does on a numpy
    scalar.  The stacks returned are the unscaled ones.
    """
    c = np.ascontiguousarray(w)
    n2 = float(np.vdot(c, c).real)
    scale = float(np.maximum.reduce(np.abs(c), axis=None))
    if scale == 0.0:
        raise ValueError("ratios undefined for the zero tensor")
    stacks = [c.take(index) for _, index in plan.groups]
    top = [0.0] * len(alpha_f)
    for (modes, index), stack in zip(plan.groups, stacks):
        fs = stack / scale
        h = fs.conj().transpose(0, 2, 1)
        gram = fs @ h if index.shape[1] <= index.shape[2] else h @ fs
        for i, lam in zip(modes, _eigvalsh(gram)[:, -1].tolist()):
            top[i] = lam
    out = []
    for a, lam in zip(alpha_f, top):
        sigma = scale * math.sqrt(lam)
        out.append(a * n2 / (sigma * sigma))
    return n2, out, stacks


def _ratios(w: np.ndarray, alpha_f: Sequence[float],
            plan: _Plan) -> tuple[float, list[float]]:
    """``|w|^2`` and the weighted ratios of ``_flattened_ratios``."""
    n2, out, _ = _flattened_ratios(w, alpha_f, plan)
    return n2, out


def _whitening_product(mode: _Mode, m: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``mode_apply(cur, mats)`` with ``mats[i] = m`` and identities
    elsewhere, given ``f = flatten(cur, i)`` and mode i's entry of the plan
    of ``cur.shape``.

    Only mode i is multiplied: an identity product changes no value.  The
    result is laid out in memory as ``mode_apply`` lays out its own, last
    mode outermost, because the iterate's norm sums in memory order, as
    ``np.linalg.norm`` does, and must keep every bit.  The plan holds both
    transpositions.
    """
    prod = np.dot(m, f).reshape(mode.product)
    return np.ascontiguousarray(prod.transpose(mode.stored)).transpose(mode.view)


def objective(v, mats: Sequence[np.ndarray], alpha) -> float:
    """Smallest weighted norm ratio of the transformed tensor.

    Scale invariant per mode; any invertible ``mats`` gives a valid lower
    bound for the basis-free stable rank of ``v``.
    """
    a = np.asarray(v, dtype=complex)
    w = as_weight(alpha, a.ndim)
    if not np.any(a):
        raise ValueError("objective undefined for the zero tensor")
    transformed = mode_apply(a, mats)
    return min(_ratios(transformed, _double_weights(w), _plan(transformed.shape))[1])


def stationarity_residual(v, alpha, r: float) -> float:
    """Violation of the optimality condition at ratio level ``r``.

    For each mode the matrix ``alpha_i |v|^2 I - r * F F*`` (F the mode
    flattening) must be positive semidefinite at an optimal point; the
    residual is the worst normalized negative eigenvalue, 0 when the
    condition holds.  Modes of one size share one gather of their
    flattenings, one batched Gram product and one ``eigvalsh``, as in
    ``_ratios``; every value equals that of the mode taken alone.
    """
    a = np.asarray(v, dtype=complex)
    w = as_weight(alpha, a.ndim)
    n2 = float(np.vdot(a, a).real)
    if n2 == 0.0:
        raise ValueError("residual undefined for the zero tensor")
    scales = [float(x) * n2 for x in w]
    lam_min = [0.0] * a.ndim
    for modes, index in _plan(a.shape).groups:
        fs = np.take(a, index)
        gram = fs @ fs.conj().transpose(0, 2, 1)
        diag = np.array([scales[i] for i in modes])[:, None, None] * np.eye(index.shape[1])
        h = diag - float(r) * gram
        for i, lam in zip(modes, _eigvalsh(h)[:, 0].tolist()):
            lam_min[i] = lam
    worst = 0.0
    for scale, lam in zip(scales, lam_min):
        worst = max(worst, max(0.0, -lam) / scale)
    return worst


@dataclass
class LowerBoundReport:
    """Lower bound with the transform that attained it, evaluated in double
    precision and so tolerance-qualified."""

    bound: float
    group: list[np.ndarray]
    ratios: list[float]
    stationarity_residual: float
    iterations: int


def _double_weights(w) -> list[float]:
    """The positive weights ``w`` as doubles.  A weight with no positive
    finite double, which rounds to 0.0 or overflows, raises ``ValueError``
    naming its mode: the ascent weighs in doubles."""
    out = []
    for mode, x in enumerate(w):
        try:
            d = float(x)
        except OverflowError:
            d = math.inf
        if not 0.0 < d < math.inf:
            raise ValueError(f"weight of mode {mode} is outside double precision")
        out.append(d)
    return out


def _first_argmin(values: list[float]) -> int:
    """``int(np.argmin(values))`` for a list of floats: the first nan if
    there is one, else the first minimum."""
    for k, x in enumerate(values):
        if x != x:
            return k
    return values.index(min(values))


def ascend(v, alpha=None, max_iters: int = 400, tol: float = 1e-10) -> LowerBoundReport:
    """Push the minimum norm ratio upward by damped mode-wise whitening.

    Starts at the identity (so the starting bound is the plain norm-ratio
    bound), repeatedly whitens the mode attaining the minimum, and reports
    the best value seen.  Each step updates only the whitened mode, of the
    group and of the iterate, reads that mode's flattening from the stacks
    that gave the step its ratios, and its damped identity from the
    tensor's flattening plan, built once per call.  The reported bound is
    monotone in the iteration count, but it is read from the renormalised
    iterate, which each step updates in place of applying the group to
    ``a`` again; once g is ill-conditioned the iterate can drift from g·a,
    and the bound is then no lower bound.  On the (3,3,3)
    tensor {(0,0,2): 1, (0,1,1): 3/2, (0,2,0): -1, (0,2,1): 3,
    (2,0,2): -5/4} it reports 2.99999999925, above the upper bound 2 that
    the basis search certifies, while the objective at the returned group
    reads about 1.04.
    Only a value read at g·a itself is a lower bound.  Stops after
    ``max_iters`` steps or when the step-to-step improvement falls below
    ``tol`` relatively.  A negative ``max_iters``, a ``tol`` that is
    negative, nan or infinite, or a weight with no positive finite double
    raises ``ValueError``.
    """
    check_count("max_iters", max_iters)
    check_tolerance("tol", tol)
    a = np.asarray(v, dtype=complex)
    w = as_weight(alpha, a.ndim)
    alpha_f = _double_weights(w)
    if not np.any(a):
        raise ValueError("cannot bound the zero tensor")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    if not np.isfinite(norm):
        raise ValueError("tensor norm overflows double precision")
    # Bring the largest entry into [1/2, 1) by a power of two, so the norm
    # of tiny entries cannot underflow.  The scaling is exact: ldexp moves
    # only exponents, and in the normal range no result changes.
    exp = -int(np.frexp(np.max(np.abs(a)))[1])
    a = np.ldexp(a.real, exp) + 1j * np.ldexp(a.imag, exp)
    norm = np.linalg.norm(a)

    cur = a / norm
    plan = _plan(a.shape)
    gs = _identity_group(a.shape)
    n2, ratios, stacks = _flattened_ratios(cur, alpha_f, plan)
    best = min(ratios)
    # The loop replaces gs[i] by a new array and never writes into one, and
    # each _flattened_ratios call returns a new list, so neither needs a
    # copy to keep the best point as it stood.
    best_gs = list(gs)
    best_ratios = ratios
    prev = best
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        i = _first_argmin(ratios)
        mode = plan.modes[i]
        f = stacks[mode.group][mode.slot]  # flatten(cur, i)
        gram = f @ f.conj().T
        eps = 1e-12 * n2  # |cur|^2, from the call that made ratios
        evals, evecs = _eigh(gram)
        whiten = (evecs * (evals + eps) ** -0.5) @ evecs.conj().T
        blend = mode.damped + _STEP * whiten
        gs[i] = blend @ gs[i]
        cur = _whitening_product(mode, blend, f)
        # np.linalg.norm(cur), summed in memory order as numpy sums it
        flat = cur.ravel(order="K")
        norm = math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
        cur = cur / norm
        gs[i] = gs[i] / norm
        n2, ratios, stacks = _flattened_ratios(cur, alpha_f, plan)
        val = min(ratios)
        if val > best:
            best = val
            best_gs = list(gs)
            best_ratios = ratios
        if abs(val - prev) <= tol * max(1.0, abs(prev)):
            break
        prev = val
    residual = stationarity_residual(mode_apply(a, best_gs), w, best)
    return LowerBoundReport(best, best_gs, best_ratios, residual, iterations)


@dataclass
class SandwichResult:
    """Two-sided enclosure of the basis-free stable rank."""

    lower: float
    upper: Fraction
    report: LowerBoundReport


def sandwich(v: SparseTensor, alpha=None, max_iters: int = 400, tol: float = 1e-10,
             budget: int = 64, seed: int = 0) -> SandwichResult:
    """Lower bound from the complex ascent, upper bound from the basis
    search, for a tensor with exact rational entries.  The input, the
    counts, ``tol`` and, unless the tensor is zero, the weights as doubles
    are checked before the search runs."""
    check_count("max_iters", max_iters)
    check_tolerance("tol", tol)
    check_count("budget", budget)
    w = as_weight(alpha, v.order)
    if v.is_zero():
        empty = LowerBoundReport(0.0, _identity_group(v.shape), [], 0.0, 0)
        return SandwichResult(0.0, Fraction(0), empty)
    _double_weights(w)
    dense = to_dense_complex(v)
    if not np.any(dense):
        raise ValueError("tensor entries underflow double precision")
    upper = grank_upper_search(v, w, budget=budget, seed=seed)
    report = ascend(dense, w, max_iters=max_iters, tol=tol)
    return SandwichResult(report.bound, upper, report)
