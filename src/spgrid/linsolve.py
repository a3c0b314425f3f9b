"""The tridiagonal solve of every Newton step.

A system is four bands of one length, ``sub``, ``diag``, ``sup`` and
``rhs``; the rows are the three-point scheme's, assembled by
:func:`spgrid.newton._jacobian`, and this module knows no mesh.  With a
positive reaction derivative the matrix is an irreducibly diagonally
dominant M-matrix, so elimination needs no pivoting: :func:`thomas_solve`
removes the odd rows level by level, by one rule at every level length
(cyclic reduction, Hockney 1965), until ``REDUCTION_BASE`` rows are left,
and solves those by LAPACK's ``dgtsv`` from the OpenBLAS that numpy's
wheels load.  The base is finite because ``dgtsv`` eliminates one row
after another, and where a Newton system holds runs of subnormal entries
that loop takes the slow path of subnormal arithmetic: handed whole
systems, the direct solve of ex1 on Shishkin at eps = 1e-4 and n = 2^16
ran 2.4 times slower than with the levels.  Where numpy links another
LAPACK (conda's, MKL, Accelerate), the levels go on to ``SCALAR_BASE``
rows and scalar Thomas elimination ends the solve.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np


class ZeroPivotError(RuntimeError):
    """Vanishing pivot during elimination; diagonal dominance is broken."""


# Levels longer than this are reduced in numpy, and dgtsv solves the rest.
REDUCTION_BASE = 4096
# Without dgtsv, levels go on to this length; below it the scalar loop is cheaper.
SCALAR_BASE = 128


@functools.cache
def lapack_dgtsv():
    """LAPACK's ``dgtsv`` from the OpenBLAS that numpy's wheels load (ILP64
    integers), or None where numpy links another LAPACK."""
    try:
        from numpy.linalg import _umath_linalg

        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_dgtsv_64_
    except (ImportError, OSError, AttributeError, TypeError):
        return None
    fn.argtypes = [ctypes.c_void_p] * 8  # else ctypes passes 32-bit C ints
    fn.restype = None
    return fn


def _pivot_sizes(piv: np.ndarray, row) -> np.ndarray:
    """``|piv|``, once every pivot is checked; the first zero, tiny or
    non-finite pivot ``i`` raises :class:`ZeroPivotError` naming ``row(i)``."""
    size = np.abs(piv)
    # min() propagates NaN, so these two tests catch NaN, zero, tiny and inf
    if not (size.min() >= 1e-300 and size.max() < math.inf):
        bad = ~(size >= 1e-300) | np.isinf(piv)
        raise ZeroPivotError(f"zero or non-finite pivot in row {row(bad.argmax())}")
    return size


def thomas_solve(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Odd-even cyclic reduction to ``REDUCTION_BASE`` rows, then LAPACK's
    ``dgtsv`` (Anderson et al., *LAPACK Users' Guide*, 3rd ed., 1999).

    Where numpy's LAPACK has no ``dgtsv`` (:func:`lapack_dgtsv` is None),
    the levels go on to ``SCALAR_BASE`` rows and scalar Thomas elimination
    ends the solve.  Four bands not of one length, on either tail, raise
    :class:`ValueError`.  ``sub[0]`` and ``sup[-1]`` are never read.  An even
    length's last row is odd with no right neighbour: it is eliminated into
    and solved from its left neighbour alone.  A zero or non-finite pivot
    (for ``dgtsv``, a diagonal entry of its U) raises :class:`ZeroPivotError`
    naming the row of the system it came from.  Levels free their
    temporaries early and are dropped once solved, and ``dgtsv`` works in
    place on the last level's bands (on copies when no level ran), so the
    solve holds at most about four arrays of the system's length besides
    its input.
    """
    a, b, c, d = sub, diag, sup, rhs
    # dgtsv trusts its n; a None rhs has no shape and raises here too
    if not getattr(d, "shape", None) == a.shape == b.shape == c.shape == (len(b),):
        raise ValueError("the four bands are not of one length")
    dgtsv = lapack_dgtsv()
    levels = []
    while len(b) > (SCALAR_BASE if dgtsv is None else REDUCTION_BASE):
        k = len(b) // 2  # odd rows
        ao, bo, co, do = a[1::2], b[1::2], c[1::2], d[1::2]
        shift = len(levels)
        size = _pivot_sizes(bo, lambda i: (2 * i + 1) << shift)
        ninv = np.divide(-1.0, bo, out=size)  # -1/b: no negated copies of a, c
        b, d = b[::2].copy(), d[::2].copy()
        del bo  # frees the input diagonal from the second level on
        j = len(b) - 1  # odd rows with an even row on their right
        alpha = a[2::2] * ninv[:j]  # even row 2i+2 eliminates odd row 2i+1 ...
        gamma = c[:2 * k:2] * ninv  # ... and so does even row 2i
        a, c = np.empty_like(b), np.empty_like(b)
        a[0] = c[-1] = 0.0
        np.multiply(alpha, ao[:j], out=a[1:])
        # c[:k] holds each product until it is added, and its own band last;
        # every row still adds its alpha term before its gamma term
        b[1:] += np.multiply(alpha, co[:j], out=c[:j])
        b[:k] += np.multiply(gamma, ao, out=c[:k])
        d[1:] += np.multiply(alpha, do[:j], out=c[:j])
        d[:k] += np.multiply(gamma, do, out=c[:k])
        np.multiply(gamma, co, out=c[:k])  # even length: sup[-1] only reaches c[-1]
        del alpha, gamma  # before the next level allocates its own
        levels.append((ao, co, do, ninv))
    # row i of the last level is row i << len(levels) of the system
    if dgtsv is None:
        y = _thomas(a, b, c, d, len(levels))
    else:
        y = _dgtsv(dgtsv, a, b, c, d, len(levels))
    while levels:  # popped, so each level's arrays go once it is solved
        ao, co, do, ninv = levels.pop()
        j = len(y) - 1
        full = np.empty(len(y) + len(ao))
        full[::2] = y
        # (do - ao y - co y) / b, written as (ao y - do + co y) * (-1/b): round
        # to nearest is symmetric under negation, so the bits are the same
        odd = np.multiply(ao, y[:len(ao)], out=full[1::2])
        odd -= do
        odd[:j] += co[:j] * y[1:]
        odd *= ninv
        y = full
    return y


def _dgtsv(dgtsv, a, b, c, d, shift: int) -> np.ndarray:
    """The last level solved by ``dgtsv``, which overwrites all four bands:
    in place for a level's own bands, on copies of the caller's."""
    # a level's bands are contiguous float64 already: ascontiguousarray copies none
    own = np.ascontiguousarray if shift else np.array
    a, b, c, d = bands = [own(v, dtype=np.float64) for v in (a, b, c, d)]
    m = len(b)
    # n, nrhs, ldb and info, this call's own: ctypes releases the GIL
    ints = (ctypes.c_int64 * 4)(m, 1, m, 0)
    p = ctypes.addressof(ints)
    sub, diag, sup, y = (ctypes.addressof(ctypes.c_double.from_buffer(v)) for v in bands)
    dgtsv(p, p + 8, sub + 8, diag, sup, y, p + 16, p + 24)  # sub[1:] and sup[:-1]
    if ints[3] < 0:
        raise RuntimeError(f"dgtsv rejected its argument {-ints[3]}")
    # b is now U's diagonal; on an exact zero (info > 0) dgtsv stops there,
    # and the first bad entry is that one or one before it
    _pivot_sizes(b, lambda i: i << shift)
    return d


def _thomas(a, b, c, d, shift: int) -> np.ndarray:
    """The last level solved by scalar Thomas elimination."""
    sub, diag, sup, rhs = a.tolist(), b.tolist(), c.tolist(), d.tolist()
    sub[0] = 0.0  # sup[-1] only reaches c[-1], which no row reads
    m = len(diag)
    c = [0.0] * m
    d = [0.0] * m
    for i in range(m):  # c[-1] and d[-1] are still 0.0 at i = 0
        piv = diag[i] - sub[i] * c[i - 1]
        if not 1e-300 <= abs(piv) < math.inf:
            raise ZeroPivotError(f"zero or non-finite pivot in row {i << shift}")
        c[i] = sup[i] / piv
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / piv
    for i in range(m - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.asarray(d)
