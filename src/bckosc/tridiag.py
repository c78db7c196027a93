"""Odd-even cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal.
7, 627 (1970)) of batches of symmetric tridiagonal systems: system k has
diagonal ``b[k]`` and off-diagonal ``c[k]``.  Each level eliminates the
odd-numbered unknowns from the equations of the even-numbered ones, which
leaves a symmetric tridiagonal system of half the size, so every level
works on whole arrays.
"""

import numpy as np


def allocate(k, m, size, dtype, constant):
    """Empty levels (w, lw, rw) for ``eliminate`` of k systems of m
    unknowns down to ``size``; a ``constant`` coupling's first rw is a view
    of its lw."""
    levels, n = [], m
    while n > size:
        p, q = n // 2, n - n // 2
        w, lw = np.empty((k, p), dtype), np.empty((k, p), dtype)
        rw = (lw[:, :q - 1] if constant and not levels
              else np.empty((k, p), dtype))
        levels.append((w, lw, rw))
        n = q
    return levels


def _lies_flat(a):
    return a.shape[0] == 1 or a.strides[0] == a.shape[1] * a.strides[1]


def _shifted(op, b, u):
    """op(b[:, 1:], u[:, :n - 1]) into b[:, 1:]; if u's n-th column is zero
    and the rows lie flat, as one loop along them, not numpy's one per row."""
    n = b.shape[1]
    if u.shape[1] == n and _lies_flat(b) and _lies_flat(u):
        b, u = b.reshape(-1), u.reshape(-1)
        op(b[1:], u[:-1], out=b[1:])
    else:
        op(b[:, 1:], u[:, :n - 1], out=b[:, 1:])


def eliminate(b, c, size, out=None, scratch=None):
    """Eliminate the systems (b, c), in place in b, down to at most
    ``size`` unknowns; ``c[:, j]`` couples unknowns j and j+1, and a c of
    shape (K, 1) couples all neighbours of system k by ``c[k, 0]``.

    A level keeps w, the inverse odd pivots, and lw, rw, the odd unknowns'
    couplings to their left and right even neighbours times w, in the first
    K rows of ``out`` (from ``allocate``) or new arrays.  The couplings,
    with a zero past the last unknown, and the updates of b are formed in
    ``scratch`` ((K, ceil(m/2)) for a constant coupling, else (K, m)) or a
    new array, so even sizes take whole rows.  Returns the levels and the
    reduced (b, c).  Nothing is checked: a non-finite value stays in the b
    it updates or, past the last level, in the reduced c.
    """
    k, m = b.shape
    constant, dtype = c.shape[1] == 1, np.result_type(b, c)
    if out is None:
        out = allocate(k, m, size, dtype, constant)
    if scratch is None:
        scratch = np.empty((k, m - m // 2 if constant else m), dtype)
    scratch = scratch[:k]
    if c.shape[1] > 1:
        # the caller's c is not overwritten
        np.copyto(scratch[:, :m - 1], c)
        scratch[:, m - 1] = 0
        c = scratch[:, :m]
    levels = []
    for w, lw, rw in out:
        w, lw, rw = w[:k], lw[:k], rw[:k]
        p = w.shape[1]
        np.divide(1.0, b[:, 1::2], out=w)
        b = b[:, 0::2]
        if constant and not levels:
            np.multiply(c, w, out=lw)
            np.multiply(-c, lw, out=scratch[:, :p])
            b[:, :p] += scratch[:, :p]
            # the zero past the last unknown: on an even size it replaces
            # the last odd unknown's update, which has no right neighbour
            c = scratch[:, :b.shape[1]]
            c[:, -1] = 0
            _shifted(np.add, b, c)
        else:
            # in place in c: its right entries become the b update, its
            # left entries the other update, then the next coupling
            left, right = c[:, 0:2 * p:2], c[:, 1::2]
            np.multiply(left, w, out=lw)
            np.multiply(right, w, out=rw)
            right *= rw
            _shifted(np.subtract, b, right)
            np.multiply(left, lw, out=right)
            b[:, :p] -= right
            left *= rw
            # not np.negative(left, out=left): numpy 2.4.6 reads a float64
            # view of 64-byte stride as if it were contiguous there
            left *= -1.0
            c = c[:, 0::2]
        levels.append((w, lw, rw))
    return levels, b, c[:, :b.shape[1] - 1]


def bind(levels, sel, x, scratch):
    """Bind each level's factors ``w[sel]``, ``lw[sel]``, ``rw[sel]`` to the
    views of x it updates, and to ``scratch`` (x's leading shape, half its
    unknowns), once for every solve into x.  Returns the bindings and the
    reduced system's view of x.
    """
    bound, evens = [], x
    for w, lw, rw in levels:
        odd, evens = evens[..., 1::2], evens[..., 0::2]
        p, q = odd.shape[-1], evens.shape[-1]
        bound.append((w[sel], lw[sel], rw[sel][..., :q - 1], odd,
                      evens if p == q else evens[..., :p],
                      odd if p == q - 1 else odd[..., :q - 1], evens[..., 1:],
                      scratch[..., :p], scratch[..., :q - 1],
                      np.may_share_memory(lw, rw)))
    return bound, evens


def reduce(bound):
    """Reduce the right-hand sides of ``bound``, in place; a constant
    level's rw is the head of lw, so one product serves both updates.
    Outputs are positional: numpy parses them faster than ``out=``."""
    for w, lw, rw, odd, left, odd_r, right, s, s_r, shared in bound:
        np.multiply(lw, odd, s)
        left -= s
        if not shared:
            np.multiply(rw, odd_r, s_r)
        right -= s_r


def back(bound):
    """Back-substitute every level's odd unknowns, innermost first."""
    for w, lw, rw, odd, left, odd_r, right, s, s_r, _ in reversed(bound):
        odd *= w
        np.multiply(lw, left, s)
        odd -= s
        np.multiply(rw, right, s_r)
        odd_r -= s_r


def solve(b, c, x):
    """Solve system k for each right-hand side ``x[k, ..., :]`` in place,
    overwriting b; a bad pivot leaves x undefined for the caller to check.
    """
    levels, last, _ = eliminate(b, c, 1)
    sel = (slice(None),) + (None,) * (x.ndim - 2)
    scratch = np.empty(x.shape[:-1] + (x.shape[-1] // 2,), dtype=x.dtype)
    bound, reduced = bind(levels, sel, x, scratch)
    reduce(bound)
    reduced /= last[sel]
    back(bound)
