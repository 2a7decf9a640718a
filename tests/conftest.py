"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest


@pytest.fixture
def rebuild():
    """``rebuild(value, /, **changes)``: a new value of the same immutable type, built through its
    constructor from the value's fields, with ``changes`` overriding some of them (a field may
    itself be named ``value``)."""

    def rebuild(value, /, **changes):
        return type(value)(**{**{name: getattr(value, name) for name in value._fields}, **changes})

    return rebuild
