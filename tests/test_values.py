"""The core value types: what ``@dataclass(frozen=True)`` used to guarantee them.

They derive from :class:`instanton_lab.util.FrozenValue`, so each guarantee is
pinned here once per type: assignment and deletion raise, a twin rebuilt field
by field is equal with the same hash (presentations compare by identity), a
changed field makes the values unequal, a copy rebuilds through the
constructor, and the repr lists the fields.
"""

from __future__ import annotations

import copy

import pytest

from instanton_lab import catalog, chow
from instanton_lab.cohomology import CohVector, build_table

#: type -> (a value of it, field changes that make an unequal value)
VALUES = {
    "RewriteRule": lambda: (chow.RewriteRule((2, 0), (((0, 2), -1), ((1, 1), 1))), {"lhs": (0, 3)}),
    "ChowRingPresentation": lambda: (chow.flag3_ring(), {}),
    "ChowClass": lambda: (catalog.flag3().polarization, {"coeffs": (0, 1, 2, 0, 0, 0)}),
    "VarietyCatalogEntry": lambda: (catalog.flag3(), {"is_acm": False}),
    "CohVector": lambda: (CohVector((1, 0, 2)), {"dims": (1, 0, 3)}),
    "CohomologyTable": lambda: (build_table(catalog.curve(2, 3), (1,), (-1, 1)), {"assumptions": ()}),
    "ChernData": lambda: (build_table(catalog.flag3(), (1, 2), (0, 0)).chern, {"rank": 2}),
}

#: the two types that keep a ``__dict__`` for their ``cached_property`` values
CACHING = {"ChowRingPresentation", "VarietyCatalogEntry"}


@pytest.mark.parametrize("name", VALUES)
def test_values_refuse_assignment_and_deletion(name):
    value, _ = VALUES[name]()
    field = value._fields[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    assert getattr(value, field) is before and not hasattr(value, "extra")
    assert hasattr(value, "__dict__") == (name in CACHING)


@pytest.mark.parametrize("name", VALUES)
def test_rebuilt_twins_are_equal_with_the_same_hash(name, rebuild):
    value, changes = VALUES[name]()
    twin, copied = rebuild(value), copy.copy(value)
    assert twin is not value and type(twin) is type(value) and copied is not value
    if name == "ChowRingPresentation":
        assert value == value and twin != value and copied != value
        assert [getattr(twin, f) for f in twin._fields] == [getattr(value, f) for f in value._fields]
        return
    assert twin == value and hash(twin) == hash(value)
    assert copied == value and hash(copied) == hash(value)
    assert value != rebuild(value, **changes)
    assert value != tuple(getattr(value, f) for f in value._fields)


RING = (
    "ChowRingPresentation(variety_id='curve(0)', generators=('H',), relations=(RewriteRule(lhs=(2,), rhs=()),), "
    "top_degree=1, degree_map=(((1,), 1),))"
)


def test_reprs_list_the_fields_and_entries_leave_out_the_ring():
    """The reprs ``@dataclass`` wrote, an entry's without its ring field."""
    line = catalog.curve(0, 1, "exact_p1")
    assert repr(line) == (
        "VarietyCatalogEntry(variety_id='curve(0;deg=1;exact_p1)', kind='curve', dimension=1, "
        f"polarization=ChowClass(ring={RING}, coeffs=(0, 1)), tangent=ChowClass(ring={RING}, coeffs=(1, 2)), "
        "is_acm=True, u=1, degrees=None, genus=0, deg_g=None, curve_model='exact_p1', deg_h=1)"
    )
    assert repr(build_table(line, (1,), (0, 0))) == (
        "CohomologyTable(variety_id='curve(0;deg=1;exact_p1)', dimension=1, rank=1, tmin=0, tmax=0, "
        "rows=(CohVector(dims=(2, 0)),), "
        f"chern=ChernData(rank=1, c1=ChowClass(ring={RING}, coeffs=(0, 1)), c2=None, c3=None), assumptions=())"
    )
