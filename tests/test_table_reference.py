"""A table keeps its cohomology as plain int rows; this module keeps the table as it was when each
row was a ``CohVector`` and compares the two.

``RowTable`` holds one ``CohVector`` per twist and reads them as the table did then: ``row``,
``h``, ``chi_at``, ``tmax`` and ``to_json``.  The three ``replays`` transforms are kept beside it
in their row-by-row form; the verdict and ``natural_cohomology_window`` are compared with
``test_instanton``'s row-by-row references.  The comparison runs on arbitrary nonnegative rows on
P^1-P^6 and on the engine-built tables of the table_io families.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from instanton_lab import catalog, rr
from instanton_lab.cohomology import CohomologyTable, CohVector, build_table, serre_dual_vector
from instanton_lab.errors import MalformedDataError, VarietyMismatchError, WindowError
from instanton_lab.instanton import check_instanton, natural_cohomology_window
from instanton_lab.replays import direct_sum, pushforward_model, ulrich_dual_table
from test_cohomology import TABLE_IO_ENTRIES, per_twist_table_rows, table_io_bundles
from test_instanton import arbitrary_table, reference_natural, reference_verdict


class RowTable:
    """A table with one ``CohVector`` per twist of the window from ``tmin``."""

    def __init__(self, variety_id, rank, tmin, rows, chern=None, assumptions=()):
        self.variety_id, self.rank, self.tmin, self.rows = variety_id, rank, tmin, rows
        self.chern, self.assumptions = chern, assumptions

    @property
    def tmax(self):
        return self.tmin + len(self.rows) - 1

    @property
    def dimension(self):
        return len(self.rows[0].dims) - 1

    def require(self, lo, hi):
        if lo > hi or (self.tmin <= lo and hi <= self.tmax):
            return
        missing = tuple(t for t in range(lo, hi + 1) if not self.tmin <= t <= self.tmax)
        raise WindowError(f"table window [{self.tmin}, {self.tmax}] is missing twists {list(missing)}", missing)

    def row(self, t):
        i = t - self.tmin
        if not 0 <= i < len(self.rows):
            self.require(t, t)
        return self.rows[i]

    def h(self, i, t):
        return self.row(t)[i]

    def chi_at(self, t):
        return self.row(t).chi()

    def twists(self):
        return range(self.tmin, self.tmin + len(self.rows))

    def to_json(self):
        out = {
            "variety": self.variety_id,
            "rank": self.rank,
            "window": {"tmin": self.tmin, "tmax": self.tmax},
            "rows": [{"t": t, "h": list(row.dims)} for t, row in zip(self.twists(), self.rows)],
        }
        if self.chern is not None:
            out["chern"] = self.chern.to_json()
        if self.assumptions:
            out["assumptions"] = list(self.assumptions)
        return out


def reference_pushforward(ref, degree):
    if degree < 1:
        raise MalformedDataError("the degree h^n is positive")
    variety_id = catalog.projective_space(ref.dimension).variety_id
    return RowTable(variety_id, ref.rank * degree, ref.tmin, ref.rows, None, ref.assumptions)


def reference_direct_sum(r1, r2):
    if r1.variety_id != r2.variety_id:
        raise VarietyMismatchError(f"cannot sum tables on {r1.variety_id} and {r2.variety_id}")
    tmin, tmax = max(r1.tmin, r2.tmin), min(r1.tmax, r2.tmax)
    if tmin > tmax:
        raise WindowError("the table windows do not overlap")
    rows = tuple(r1.row(t) + r2.row(t) for t in range(tmin, tmax + 1))
    chern = None
    if r1.chern is not None and r2.chern is not None:
        chern = rr.whitney_sum(r1.chern, r2.chern)
    return RowTable(
        r1.variety_id, r1.rank + r2.rank, tmin, rows, chern, tuple(dict.fromkeys(r1.assumptions + r2.assumptions))
    )


def reference_ulrich_dual(ref, entry, defect):
    n = ref.dimension
    if ref.variety_id != entry.variety_id:
        raise VarietyMismatchError(f"table on {ref.variety_id!r} does not live on {entry.variety_id!r}")
    rows = tuple(serre_dual_vector(row) for row in reversed(ref.rows))
    chern = None if ref.chern is None else rr.ulrich_dual_chern(entry, ref.chern, defect)
    return RowTable(ref.variety_id, ref.rank, defect - n - 1 - ref.tmax, rows, chern, ref.assumptions)


def outcome(call, *args):
    """``call(*args)``, or the type and message of the ``ValueError`` it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_table(table, ref):
    """Equal JSON, window and rows."""
    assert type(table) is CohomologyTable and table.to_json() == ref.to_json()
    assert (table.tmax, table.dimension, table.twists()) == (ref.tmax, ref.dimension, ref.twists())
    assert table.rows == ref.rows and all(type(row) is CohVector for row in table.rows)


def assert_same_reads(table, ref):
    """Equal reads at every twist and one past each end."""
    for t in range(table.tmin - 1, table.tmax + 2):
        assert outcome(table.row, t) == outcome(ref.row, t)
        assert outcome(table.chi_at, t) == outcome(ref.chi_at, t)
        assert [outcome(table.h, i, t) for i in range(ref.dimension + 1)] == [
            outcome(ref.h, i, t) for i in range(ref.dimension + 1)
        ]


def assert_same_outcome(result, ref_result):
    if isinstance(ref_result, RowTable):
        assert_same_table(result, ref_result)
    else:
        assert result == ref_result


def assert_matches_reference(table, ref, entry, other, other_ref):
    """The table against its reference: reads, verdict, natural windows and the three transforms,
    the Ulrich dual also as an involution; ``other`` is a second table on the same variety."""
    assert_same_table(table, ref)
    assert_same_reads(table, ref)
    assert outcome(check_instanton, table) == outcome(reference_verdict, ref)
    for defect in (0, 1):
        assert outcome(natural_cohomology_window, table, defect) == outcome(reference_natural, ref, defect)
        dual = ulrich_dual_table(table, entry, defect)
        assert_same_table(dual, reference_ulrich_dual(ref, entry, defect))
        assert ulrich_dual_table(dual, entry, defect) == table
    for degree in (0, 1, 3):
        assert_same_outcome(outcome(pushforward_model, table, degree), outcome(reference_pushforward, ref, degree))
    assert_same_outcome(outcome(direct_sum, table, other), outcome(reference_direct_sum, ref, other_ref))


def reference_of(table):
    return RowTable(
        table.variety_id, table.rank, table.tmin, tuple(map(CohVector, table.dims)), table.chern, table.assumptions
    )


@st.composite
def table_pairs(draw):
    """Two :func:`arbitrary_table`s of ranks 1 and 2 on P^n, n in 1-6, each over a window inside
    [-n - 3, 3]."""
    n = draw(st.integers(1, 6))
    tmins = [draw(st.integers(-n - 3, 3)) for _ in range(2)]
    return [arbitrary_table(draw, n, tmin, draw(st.integers(tmin, 3)), rank) for rank, tmin in zip((1, 2), tmins)]


@given(table_pairs())
@settings(max_examples=200, deadline=None)
def test_int_rows_read_as_the_vector_rows(pair):
    table, other = pair
    entry = catalog.projective_space(table.dimension)
    assert_matches_reference(table, reference_of(table), entry, other, reference_of(other))


@pytest.mark.parametrize("entry", TABLE_IO_ENTRIES, ids=lambda entry: entry.variety_id)
def test_int_rows_read_as_the_vector_rows_on_the_table_io_grid(entry):
    """The tables of the table_io golden grid, with Chern data, against references summed twist by
    twist from ``line_bundle_cohomology``; each is summed with the grid's previous table."""
    n = entry.dimension
    previous = None
    count = 0
    for w in (0, 6, 9):
        for bundles in table_io_bundles(entry):
            window = (-n - w, w)
            table = build_table(entry, bundles, window)
            rows = per_twist_table_rows(entry, bundles, window)
            ref = RowTable(table.variety_id, table.rank, window[0], rows, table.chern, table.assumptions)
            other, other_ref = previous or (table, ref)
            assert_matches_reference(table, ref, entry, other, other_ref)
            previous, count = (table, ref), count + 1
    assert count == 3 * len(table_io_bundles(entry))
