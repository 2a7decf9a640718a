"""The value types: what ``@dataclass(frozen=True)`` used to guarantee them.

The core value types, the monad shapes and the checker's condition list
derive from :class:`instanton_lab.util.FrozenValue`, so each guarantee is
pinned here once per type: assignment and deletion raise, a twin rebuilt field
by field is equal with the same hash (presentations compare by identity), a
changed field makes the values unequal, a copy rebuilds through the
constructor (a presentation resolves to the registered one), pickled and
deep-copied values are equal to the originals, and the repr lists the fields.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from instanton_lab import catalog, chow, instanton, monads, rr
from instanton_lab.cohomology import CohVector, build_table
from instanton_lab.errors import InfeasibleError

#: type -> (a value of it, field changes that make an unequal value)
VALUES = {
    "RewriteRule": lambda: (chow.RewriteRule((2, 0), (((0, 2), -1), ((1, 1), 1))), {"lhs": (0, 3)}),
    "ChowRingPresentation": lambda: (chow.flag3_ring(), {}),
    "ChowClass": lambda: (catalog.flag3().polarization, {"coeffs": (0, 1, 2, 0, 0, 0)}),
    "VarietyCatalogEntry": lambda: (catalog.flag3(), {"is_acm": False}),
    "CohVector": lambda: (CohVector((1, 0, 2)), {"dims": (1, 0, 3)}),
    "CohomologyTable": lambda: (build_table(catalog.curve(2, 3), (1,), (-1, 1)), {"assumptions": ()}),
    "ChernData": lambda: (build_table(catalog.flag3(), (1, 2), (0, 0)).chern, {"rank": 2}),
    "Summand": lambda: (monads.Summand("Omega^1(1)", 3, 2, -1), {"c1_each": None}),
    "Constraint": lambda: (monads.Constraint("h0", "h^0(B(-h))", 3), {"description": "h^1(B)"}),
    "MonadShape": lambda: (monads.monad_pn(3, 1, 1, 0, 2, 2), {"notes": ()}),
    "SpinorMultiplicities": lambda: (monads.monad_quadric_ordinary(4, 2, 1, (-1, -1)), {"split": None}),
    "ScrollMonadReport": lambda: (monads.monad_scroll3(4, 2, 1, (-1, 1, -1)), {"relative_cotangent_h1": None}),
    "InstantonConditions": lambda: (instanton.InstantonConditions(3, 1), {"defect": 0}),
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
    assert twin is not value and type(twin) is type(value)
    if name == "ChowRingPresentation":
        # a copy is the registered presentation of its id: the value itself
        assert value == value and twin != value and copied is value
        assert [getattr(twin, f) for f in twin._fields] == [getattr(value, f) for f in value._fields]
        return
    assert copied is not value
    assert twin == value and hash(twin) == hash(value)
    assert copied == value and hash(copied) == hash(value)
    assert value != rebuild(value, **changes)
    assert value != tuple(getattr(value, f) for f in value._fields)


def test_rebuild_changes_a_field_named_value(rebuild):
    """``monads.Constraint`` has a field called ``value``, the name of rebuild's own first parameter."""
    constraint = monads.Constraint("h0", "h^0(B(-h))", 3)
    changed = rebuild(constraint, value=4)
    assert changed == monads.Constraint("h0", "h^0(B(-h))", 4) and constraint.value == 3


RING = (
    "ChowRingPresentation(variety_id='curve(0)', generators=('H',), relations=(RewriteRule(lhs=(2,), rhs=()),), "
    "top_degree=1, degree_map=(((1,), 1),))"
)


def test_reprs_list_the_fields_and_entries_leave_out_the_ring():
    """The reprs ``@dataclass`` wrote, an entry's without its ring field."""
    line = catalog.curve(0, 1, "exact_p1")
    assert repr(line) == (
        "VarietyCatalogEntry(variety_id='curve(0;deg=1;exact_p1)', kind='curve', "
        f"polarization=ChowClass(ring={RING}, coeffs=(0, 1)), tangent=ChowClass(ring={RING}, coeffs=(1, 2)), "
        "is_acm=True, degrees=None, genus=0, deg_g=None, curve_model='exact_p1', deg_h=1)"
    )
    assert repr(build_table(line, (1,), (0, 0))) == (
        "CohomologyTable(variety_id='curve(0;deg=1;exact_p1)', rank=1, tmin=0, "
        "dims=((2, 0),), "
        f"chern=ChernData(rank=1, c1=ChowClass(ring={RING}, coeffs=(0, 1)), c2=None, c3=None), assumptions=())"
    )


def test_monad_and_checker_reprs_are_the_dataclass_reprs():
    """The reprs ``@dataclass`` wrote; the condition list leaves out its derived ``checks``."""
    assert repr(monads.Summand("B_aCM", None, 1)) == "Summand(label='B_aCM', rank=None, multiplicity=1, c1_each=None)"
    assert repr(monads.Constraint("h0", "h^0(B(-h))", 3)) == "Constraint(name='h0', description='h^0(B(-h))', value=3)"
    assert repr(monads.monad_pn(2, 0, 1, 1)) == (
        "MonadShape(terms=((Summand(label='O(-1)', rank=1, multiplicity=1, c1_each=-1),), "
        "(Summand(label='O', rank=1, multiplicity=4, c1_each=0),), "
        "(Summand(label='O(1)', rank=1, multiplicity=1, c1_each=1),)), constraints=(), notes=())"
    )
    assert repr(VALUES["SpinorMultiplicities"]()[0]) == "SpinorMultiplicities(total=2, split=(1, 1))"
    assert repr(VALUES["ScrollMonadReport"]()[0]) == (
        "ScrollMonadReport(multiplicities=(1, 1, 1), relation='s1 + 2 s2 + s3 = rank + 2 quantum', "
        "relative_cotangent_h1=1)"
    )
    assert repr(instanton.InstantonConditions(3, 1)) == "InstantonConditions(n=3, defect=1)"


def test_summands_refuse_a_negative_multiplicity():
    with pytest.raises(InfeasibleError, match="negative multiplicity for O: -1"):
        monads.Summand("O", 1, -1)


def test_condition_lists_stay_cached_per_dimension_and_defect():
    assert instanton._conditions(3, 1) is instanton._conditions(3, 1)
    assert instanton._conditions(3, 1) == instanton.InstantonConditions(3, 1)
    assert instanton._conditions(3, 1).checks == instanton.InstantonConditions(3, 1).checks


#: entry -> a line-bundle sum on it, in its divisor basis
ENTRIES = {
    "flag3": (catalog.flag3, (1, 2)),
    "scroll_p1(1,1,2)": (lambda: catalog.scroll_p1((1, 1, 2)), (1, 1)),
    "curve(2;deg=3;generic)": (lambda: catalog.curve(2, 3, "generic"), (1,)),
    "projective_space(3;h=2)": (lambda: catalog.projective_space(3, 2), (1,)),
}


@pytest.mark.parametrize("variety", ENTRIES)
def test_pickled_and_deep_copied_values_equal_the_originals(variety):
    """Copies of a ring's values hold the registered presentation, so they combine with the originals."""
    build, bundle = ENTRIES[variety]
    entry = build()
    table = build_table(entry, bundle, (-1, 1))
    values = {"class": entry.polarization, "chern": table.chern, "table": table, "entry": entry}
    assert entry.variety_id == variety and table.chern is not None
    for name, value in values.items():
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and hash(copied) == hash(value), name
    for copied in (pickle.loads(pickle.dumps(entry.ring)), copy.deepcopy(entry.ring)):
        assert copied is entry.ring is chow.preset_ring(entry.ring.variety_id)
    twice = pickle.loads(pickle.dumps(entry.polarization))
    assert chow.integrate(twice * entry.polarization ** (entry.dimension - 1)) == chow.integrate(
        entry.polarization ** entry.dimension
    )


def test_pickled_and_deep_copied_monad_shapes_equal_the_originals():
    shape = monads.monad_pn(3, 1, 1, 0, 2, 2)
    for copied in (pickle.loads(pickle.dumps(shape)), copy.deepcopy(shape)):
        assert copied == shape and hash(copied) == hash(shape) and copied is not shape


@pytest.mark.parametrize("variety", ENTRIES)
def test_chern_data_after_chi_equal_their_rebuilt_twins(variety, rebuild):
    """chi keeps n! ch(E) on the Chern data it reads; that slot is no field, so afterwards the
    data are still equal to a twin rebuilt from the fields, with the same hash, repr and JSON,
    and their pickled and deep-copied values are equal too (and rebuilt without the slot)."""
    build, bundle = ENTRIES[variety]
    entry = build()
    chern = build_table(entry, bundle, (0, 0)).chern
    before = (repr(chern), chern.to_json(), hash(chern))
    assert chern._ch is None
    value = rr.chi(entry, chern)
    assert chern._ch is not None
    twin = rebuild(chern)
    assert twin == chern and hash(twin) == hash(chern) and twin._ch is None
    assert (repr(chern), chern.to_json(), hash(chern)) == before
    for copied in (pickle.loads(pickle.dumps(chern)), copy.deepcopy(chern)):
        assert copied == chern and hash(copied) == hash(chern) and copied._ch is None
        assert rr.chi(entry, copied) == value
