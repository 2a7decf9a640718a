"""Small exact-arithmetic helpers, the typed integer parser and the base of the package's
immutable value types."""

from __future__ import annotations

import math

from .errors import MalformedDataError


class FrozenValue:
    """Base of the immutable value types every command-line call builds.

    It gives what ``@dataclass(frozen=True)`` gave them, without importing
    :mod:`dataclasses` (which imports :mod:`inspect`) and without compiling
    generated methods per class when a module loads: a one-shot call of the
    CLI pays both in start-up time.  A subclass lists its fields in
    ``_fields``, in constructor order, and sets them in ``__init__`` with
    ``object.__setattr__``; afterwards no attribute can be assigned or
    deleted.  Two values are equal when they have the same class and equal
    fields, the hash is that of the field tuple, and the repr shows every
    field but those named in ``_unshown``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._unshown)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def fields_json(value: object, skip: tuple[str, ...] = ()) -> dict:
    """The JSON of a report: ``{field: value}`` in declaration order.

    The fields are ``_fields`` of a :class:`FrozenValue` and the declared
    fields of a dataclass (read off ``__dataclass_fields__``, so
    :mod:`dataclasses` is not imported here); those named in ``skip`` are
    left out.  A value with a ``to_json`` nests through it and a tuple
    becomes a list, element by element; anything else is kept as it is.
    """
    names = value._fields if isinstance(value, FrozenValue) else value.__dataclass_fields__
    return {name: _json(getattr(value, name)) for name in names if name not in skip}


def _json(value: object) -> object:
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    return value


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


def parse_int(value: object) -> int:
    """``int(value)``; a refusal raises ``MalformedDataError`` in ``int()``'s own words."""
    try:
        return int(value)
    except ValueError as exc:
        raise MalformedDataError(str(exc)) from None
