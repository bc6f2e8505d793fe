"""Truncated Taylor jets in (xi_1, xi_2, lambda).

A Jet holds, per point, the coefficients of the 12 monomials
dxi_1^a dxi_2^b dlam^c with a + b <= 2 and c <= 1: the c = 0 block x and
the c = 1 block l, each a (6, n) array (real for a real jet such as A) with
rows in multiplier.KAPPAS order.  A jet free of lambda (A, i xi_1 and what
is built from them alone) has l = None, so its products skip zero terms.
+, -, *, / and sqrt propagate the truncated series exactly (Griewank and
Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13), quotients and
roots by one forward recursion over the monomials, so the array formulas of
a symbol evaluate its jet unchanged: d_xi^k d_lam^c m is k! c! times a
coefficient.  Every operation is elementwise, so no coefficient depends on
the batch it is computed in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet"]


def _mul(x, y):
    """The product of two blocks, truncated at degree 2 in xi."""
    out = x[0] * y
    out[1:] += x[1:] * y[0]
    out[3:5] += x[1:3] * y[1:3]
    out[5] += x[1] * y[2] + x[2] * y[1]
    return out


def _div(u, v):
    """The block q with _mul(q, v) = u.  Rows past the first are products
    over v0^2 with q0 v0 taken as u0, so a coefficient that vanishes because
    u and v are in proportion comes out 0.0, not a residue of u0/v0."""
    q = np.empty(np.broadcast_shapes(u.shape, v.shape), dtype=np.result_type(u, v))
    u0, v0 = u[0], v[0]
    v00 = v0 * v0
    q[0] = u0 / v0
    q[1:3] = (u[1:3] * v0 - v[1:3] * u0) / v00
    q[3:5] = (u[3:5] * v0 - v[3:5] * u0 - v[1:3] * q[1:3] * v0) / v00
    q[5] = (u[5] * v0 - v[5] * u0 - (v[1] * q[2] + v[2] * q[1]) * v0) / v00
    return q


def _map(block, op):
    return None if block is None else op(block)


def _plus(a, b):
    return a if b is None else b if a is None else a + b


class Jet:
    __slots__ = ("x", "l")
    __array_ufunc__ = None      # ndarray <op> Jet defers to the Jet method

    def __init__(self, x, l=None):
        self.x, self.l = x, l

    @classmethod
    def variable(cls, value, axis: int) -> "Jet":
        """A coordinate at the points of value: lambda (axis 0) or xi_axis."""
        x = np.zeros((6, np.size(value)), dtype=np.result_type(value))
        x[0] = value
        if axis:
            x[axis] = 1.0
            return cls(x)
        l = np.zeros_like(x)
        l[0] = 1.0
        return cls(x, l)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.x + other.x, _plus(self.l, other.l))
        x = self.x.astype(np.result_type(self.x, other))
        x[0] += other
        return Jet(x, self.l)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.x, _map(self.l, np.negative))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.x * other, _map(self.l, lambda l: l * other))
        return Jet(_mul(self.x, other.x), _plus(_map(other.l, lambda l: _mul(self.x, l)),
                                                _map(self.l, lambda l: _mul(l, other.x))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.x / other, _map(self.l, lambda l: l / other))
        q = _div(self.x, other.x)
        # the lambda block of q solves q_l v_x = u_l - q_x v_l
        rest = _plus(self.l, _map(other.l, lambda l: -_mul(q, l)))
        return Jet(q, _map(rest, lambda r: _div(r, other.x)))

    def __rtruediv__(self, other):
        u = np.zeros_like(self.x, dtype=np.result_type(self.x, other))
        u[0] = other
        return Jet(u) / self

    def sqrt(self) -> "Jet":
        """The principal root: s with s * s = self, row by row."""
        u, s = self.x, np.empty_like(self.x)
        s[0] = np.sqrt(u[0])
        d = 2.0 * s[0]
        s[1:3] = u[1:3] / d
        s[3:5] = (u[3:5] - s[1:3] * s[1:3]) / d
        s[5] = (u[5] - 2.0 * s[1] * s[2]) / d
        return Jet(s, _map(self.l, lambda l: _div(l, 2.0 * s)))
