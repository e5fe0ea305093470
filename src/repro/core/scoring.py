"""The SliceLine scoring function and its upper bounds.

Implements Definition 1 (Equation 1/5), the score upper bound of Equation 3,
its collapse to one point once a slice's exact size is known, and the caps
on a slice's error sum that tighten that point.
Everything is vectorized over arrays of slice statistics so the same code
scores one slice or a full lattice level.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def score(
    sizes: np.ndarray,
    errors: np.ndarray,
    num_rows: int,
    total_error: float,
    alpha: float,
) -> np.ndarray:
    """Slice scores per Equation 1: ``alpha*(se_bar/e_bar - 1) - (1-alpha)*(n/|S| - 1)``.

    *sizes* and *errors* are aligned vectors of slice sizes ``|S|`` and total
    slice errors ``se``.  Empty slices (size 0) receive ``-inf`` — the paper
    defines their score as negative, and ``-inf`` keeps them out of any
    top-K without a magic constant.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    _validate_inputs(num_rows, total_error)
    avg_error = total_error / num_rows
    with np.errstate(divide="ignore", invalid="ignore"):
        sc = alpha * ((errors / sizes) / avg_error - 1.0) - (1.0 - alpha) * (
            num_rows / sizes - 1.0
        )
    return np.where(sizes > 0, sc, -np.inf)


def score_single(
    size: float, error: float, num_rows: int, total_error: float, alpha: float
) -> float:
    """Scalar convenience wrapper around :func:`score`."""
    return float(
        score(
            np.asarray([size]), np.asarray([error]), num_rows, total_error, alpha
        )[0]
    )


def score_at_size(
    candidate_sizes: np.ndarray,
    error_bounds: np.ndarray,
    max_error_bounds: np.ndarray,
    num_rows: int,
    total_error: float,
    alpha: float,
) -> np.ndarray:
    """Evaluate the bound objective of Equation 3 at hypothetical sizes.

    For a hypothetical slice size ``s`` the tightest admissible error is
    ``min(ceil(se), s * ceil(sm))`` — a slice of ``s`` tuples cannot carry
    more error than ``s`` times its largest possible tuple error.
    """
    s = np.asarray(candidate_sizes, dtype=np.float64)
    se_at = np.minimum(error_bounds, s * max_error_bounds)
    with np.errstate(divide="ignore", invalid="ignore"):
        return alpha * ((num_rows * se_at) / (s * total_error) - 1.0) - (
            1.0 - alpha
        ) * (num_rows / s - 1.0)


def score_upper_bound(
    size_bounds: np.ndarray,
    error_bounds: np.ndarray,
    max_error_bounds: np.ndarray,
    num_rows: int,
    total_error: float,
    sigma: int,
    alpha: float,
) -> np.ndarray:
    """Upper-bound scores ``ceil(sc)`` per Equation 3.

    Valid slices have size in ``[sigma, ceil(|S|)]``; on that interval the
    bound objective is piecewise monotonic with a single breakpoint at
    ``ceil(se)/ceil(sm)``, so the maximum is attained at one of the three
    "interesting points": ``sigma``, the breakpoint clamped into the
    interval, or ``ceil(|S|)``.  Candidates whose interval is empty
    (``ceil(|S|) < sigma``) get ``-inf`` — no valid slice can exist below
    them.
    """
    size_bounds = np.asarray(size_bounds, dtype=np.float64)
    error_bounds = np.asarray(error_bounds, dtype=np.float64)
    max_error_bounds = np.asarray(max_error_bounds, dtype=np.float64)
    _validate_inputs(num_rows, total_error)

    lo = float(sigma)
    hi = size_bounds
    with np.errstate(divide="ignore", invalid="ignore"):
        breakpoint = np.where(
            max_error_bounds > 0, error_bounds / max_error_bounds, lo
        )
    candidates = [
        np.full_like(size_bounds, lo),
        np.clip(breakpoint, lo, np.maximum(hi, lo)),
        np.maximum(hi, lo),
    ]
    best = np.full(size_bounds.shape, -np.inf)
    for cand in candidates:
        best = np.maximum(
            best,
            score_at_size(
                cand, error_bounds, max_error_bounds, num_rows, total_error, alpha
            ),
        )
    return np.where(hi >= lo, best, -np.inf)


def score_at_exact_size(
    sizes: np.ndarray,
    error_bounds: np.ndarray,
    max_error_bounds: np.ndarray,
    num_rows: int,
    total_error: float,
    sigma: int,
    alpha: float,
) -> np.ndarray:
    """A float-safe bound on :func:`score` for slices of known exact size.

    Once a candidate's exact size ``|S|`` is counted, the Eq.-3 interval
    ``[sigma, ceil(|S|)]`` is one point.  *error_bounds* and
    *max_error_bounds* are the minima of the parents' ``se`` and ``sm``.
    The result is ``-inf`` below *sigma* (no valid slice) and otherwise
    ``score(|S|, min(se_ub, cap))`` with ``cap = |S|*sm_ub*(1 + (|S|+4)*2**-52)``
    evaluated in that order.  Where the bit-plane sum ``Q`` of the slice's
    quantized errors is known, the caller passes ``min(se_ub, qcap)`` as
    *error_bounds*, ``qcap`` being :func:`plane_error_cap`.  The result
    is at least the ``score()`` of the slice's actual, kernel-computed
    ``se`` in floating point:

    * ``se <= se_ub``: a slice's ``se`` is a sequential ascending-row sum
      from ``0.0`` of non-negative terms (``csc_matvec`` at level 1, the
      kernels' ``bincount`` fold above it), and a child's rows are a subset
      of each parent's.  Rounding is monotone, so at every row the child's
      partial sum stays at or below the parent's.
    * ``se <= cap``: every member error is at most ``M = sm_ub``, so ``se``
      is at most ``Q_n``, the sequential sum of ``n = |S|`` copies of
      ``M``.  ``fl(n*M)`` alone can be below ``Q_n`` (``n = 31``,
      ``M = 0.7294965609839984``: ``Q_n = 22.61439339050396``,
      ``fl(n*M) = 22.61439339050395``), hence the margin.  With
      ``u = 2**-53``: if ``n*M < 2**-1022`` every partial sum is a
      multiple of ``2**-1074`` below the normal range, so ``Q_n = n*M``
      exactly and the factor ``>= 1`` keeps ``cap >= Q_n``.  Otherwise the
      recursive-summation bound gives ``Q_n <= n*M*(1 + g)`` with
      ``g = (n-1)u / (1-(n-1)u) <= 2(n-1)u``, while ``(n+4)*2**-52`` is
      exact and the three roundings of ``cap`` each lose at most a factor
      ``1-u``: ``cap >= n*M*(1-u)**3*(1 + 2(n+4)u)
      >= n*M*(1 + (2n+5)u - 6(n+4)u**2) >= n*M*(1 + 2(n-1)u)`` for
      ``n <= 2**50``.  An overflowing ``cap`` is ``inf`` and bounds
      nothing away.
    * ``se <= qcap = Q*step``: the level's error planes
      (:func:`~repro.linalg.kernels.pack_error_planes`) give each member
      an integer ``q`` with ``e <= q*step``, *step* a power of two.
      ``e/step`` and ``q*step`` are exact, except where the quotient
      underflows, and there ``q`` is bumped by one.  ``Q``, the sum of
      the members' ``q``, is an exact int64, and so is each prefix
      ``Q_k`` of it in row order.  While ``Q < 2**53``, every ``Q_k*step``
      is an exact float (a multiple of *step*, in the subnormal range
      too).  The fold's partial sums then stay below them: by induction,
      ``s_{k-1} + e_k <= Q_{k-1}*step + q_k*step = Q_k*step``, and
      rounding is monotone and keeps the representable ``Q_k*step``, so
      ``s_k <= Q_k*step``.  No margin is needed, and the cap is tight when
      every error is a multiple of *step*.  Any integer ``Q' >= Q`` caps
      ``se`` as well; the top-planes-first pass of
      :mod:`repro.core.evaluate` uses one.  ``Q >= 2**53`` and an
      overflowing product give ``inf``, which bounds nothing away.
    * :func:`score` is a chain of monotone roundings in ``se`` at a fixed
      size, so ``score(|S|, min(se_ub, cap)) >= score(|S|, se)``.
      :func:`score_at_size` orders its operations differently and may
      round below :func:`score` at equal ``se``, so it must not stand in.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    with np.errstate(over="ignore"):
        cap = sizes * max_error_bounds * (1.0 + (sizes + 4.0) * 2.0**-52)
    bound = score(
        sizes, np.minimum(error_bounds, cap), num_rows, total_error, alpha
    )
    return np.where(sizes >= sigma, bound, -np.inf)


def plane_error_cap(plane_sums: np.ndarray, step: float) -> np.ndarray:
    """``qcap = Q*step``, a float-safe cap on the ``se`` of slices.

    *plane_sums* are the slices' bit-plane sums ``Q``
    (:meth:`~repro.linalg.kernels.ErrorPlanes.sums`, or any larger
    integers) and *step* the planes' power-of-two quantum.  ``Q >= 2**53``
    gives ``inf``.  The proof that ``qcap`` bounds the kernel's ``se`` is
    in :func:`score_at_exact_size`, which takes ``min(se_ub, qcap)``.
    """
    with np.errstate(over="ignore"):
        return np.where(plane_sums < 2**53, plane_sums * step, np.inf)


def _validate_inputs(num_rows: int, total_error: float) -> None:
    if num_rows <= 0:
        raise ValidationError(f"num_rows must be positive, got {num_rows}")
    if total_error <= 0:
        raise ValidationError(
            "total_error must be positive; with zero total error no slice "
            "can perform worse than the (error-free) overall model"
        )
