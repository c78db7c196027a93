"""Odd-even cyclic reduction of batches of symmetric tridiagonal systems:
system k has diagonal ``b[k]`` and off-diagonal ``c[k]``.  Each level
eliminates the odd-numbered unknowns from the equations of the even-numbered
ones, which leaves a symmetric tridiagonal system of half the size, so every
level works on whole arrays.
"""

import numpy as np


def eliminate(b, c, size):
    """Elimination of the systems (b, c) down to at most ``size`` unknowns.

    ``c[:, j]`` couples unknowns j and j+1.  A level keeps w, the inverse
    odd pivots, and lw, rw, the odd unknowns' couplings to their left and
    right even neighbours times w.  Returns the levels, the magnitudes of
    the pivots they divided by, and the reduced system's (b, c).
    """
    levels, pivots = [], []
    while b.shape[1] > size:
        m = b.shape[1]
        p, q = m // 2, m - m // 2
        pivots.append(np.abs(b[:, 1::2]))
        w = 1.0 / b[:, 1::2]
        left, right = c[:, 0::2], c[:, 1::2]
        lw, rw = left * w, right * w[:, :q - 1]
        b = b[:, 0::2].copy()
        b[:, :p] -= left * lw
        b[:, 1:] -= right * rw
        c = -(left[:, :q - 1] * rw)
        levels.append((w, lw, rw))
    return levels, pivots, b, c


def split(x, size):
    """The views of x that the elimination of x's last axis down to at most
    ``size`` unknowns updates, built once for every solve into x.

    Per level: the odd unknowns, the even ones that have an odd right
    neighbour, the odd ones that have an even right neighbour, and those
    even right neighbours.  Returns (x, the levels' views, the reduced
    system's view)."""
    views, evens = [], x
    while evens.shape[-1] > size:
        odd, evens = evens[..., 1::2], evens[..., 0::2]
        views.append((odd, evens[..., :odd.shape[-1]],
                      odd[..., :evens.shape[-1] - 1], evens[..., 1:]))
    return x, views, evens


def reduce(levels, sel, views):
    """Carry the elimination of ``levels`` over the right-hand sides behind
    ``views`` (see ``split``), in place; ``lw[sel]`` of a level
    broadcasts against them."""
    for (w, lw, rw), (odd, left, odd_r, right) in zip(levels, views):
        left -= lw[sel] * odd
        right -= rw[sel] * odd_r


def back(levels, sel, views):
    """Back-substitute the odd unknowns of every level, innermost first,
    once the reduced system's unknowns are in place."""
    for (w, lw, rw), (odd, left, odd_r, right) in zip(reversed(levels),
                                                      reversed(views)):
        odd *= w[sel]
        odd -= lw[sel] * left
        odd_r -= rw[sel] * right


def solve(b, c, x):
    """Solve system k for each right-hand side ``x[k, ..., :]``, in place.

    Returns the moduli of every pivot divided by, one row per system.  A
    vanishing or non-finite pivot leaves x undefined; the caller checks.
    """
    levels, pivots, last, _ = eliminate(b, c, 1)
    sel = (slice(None),) + (None,) * (x.ndim - 2)
    _, views, reduced = split(x, 1)
    reduce(levels, sel, views)
    reduced /= last[sel]
    back(levels, sel, views)
    return np.concatenate(pivots + [np.abs(last)], axis=1)
