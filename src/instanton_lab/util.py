"""Small exact-arithmetic helpers."""

from __future__ import annotations

import math
from fractions import Fraction


def binom(m: int, k: int) -> int:
    """Generalized binomial coefficient ``C(m, k)`` for any integer ``m``.

    Defined as the falling factorial ``m (m-1) ... (m-k+1)`` divided by
    ``k!``; this is the product form that stays valid for negative ``m``
    (e.g. ``C(-1, 3) = -1``) and vanishes exactly when the product does
    (e.g. ``C(2, 3) = 0``); for ``m >= 0`` it is :func:`math.comb`.
    """
    if k < 0:
        return 0
    if m >= 0:
        return math.comb(m, k)
    num = 1
    for i in range(k):
        num *= m - i
    return num // math.factorial(k)


def floor_frac(x: Fraction) -> int:
    """Floor of an exact rational."""
    return x.numerator // x.denominator


def as_int(x: Fraction, what: str = "value") -> int:
    """Convert an exact rational known to be integral, or raise ``ValueError``."""
    if x.denominator != 1:
        raise ValueError(f"{what} is not an integer: {x}")
    return int(x)


def render_rational(x: Fraction | int) -> str:
    """Render a rational exactly, as ``p`` or ``p/q``."""
    if isinstance(x, int):
        return str(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
