"""Brute-force classification of instanton line bundles over lattice boxes.

The classification routines enumerate line bundles on the sextic del Pezzo
entries over a lattice box, sift them column-major through the instanton
condition list (each condition reads one column, the rows at one twist of the
candidates that passed the earlier ones, from the entry's line-bundle
cohomology memo, keyed by translating the candidates' coordinate axes whole,
so each twisted bundle reaches its exact engine once per process however many
scans share it; only the box is checked), and compare the outcome against the
closed-form families (exposing the boundary members explicitly rather than
suppressing either side).  The paper's other replays live in
:mod:`instanton_lab.replays`, so a scan compiles none of them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator

from . import catalog, cohomology, instanton
from .catalog import VarietyCatalogEntry, polarization_coords
# build_table, coh_product: unused here; bench/tests/test_bench.py reads classify.build_table
from .cohomology import CohVector, build_table, coh_product  # noqa: F401

#: default half-width of enumeration boxes; all known families and their
#: nearest non-members fit inside
DEFAULT_BOX = 6


@dataclass(frozen=True)
class FoundLine:
    coordinates: tuple[int, ...]
    defect: int
    quantum: int

    def to_json(self) -> dict:
        return {
            "coordinates": list(self.coordinates),
            "defect": self.defect,
            "quantum": self.quantum,
        }


@dataclass(frozen=True)
class ClassificationReport:
    family: str
    defect: int
    box: int
    found: tuple[FoundLine, ...]
    expected: tuple[FoundLine, ...]
    boundary: tuple[FoundLine, ...]
    agreement: str  # exact | superset | mismatch
    diffs: tuple[str, ...]
    quantum_formula_ok: bool
    #: per condition, in list order, the candidates whose first failing
    #: condition it is; kept out of ``to_json`` and ``to_markdown``
    rejections: tuple[tuple[instanton.Check, int], ...]

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "defect": self.defect,
            "box": self.box,
            "found": [f.to_json() for f in self.found],
            "expected": [f.to_json() for f in self.expected],
            "boundary": [f.to_json() for f in self.boundary],
            "agreement": self.agreement,
            "diffs": list(self.diffs),
            "quantum_formula_ok": self.quantum_formula_ok,
        }

    def to_markdown(self) -> str:
        lines = [
            f"## {self.family} classification (defect {self.defect}, box {self.box})",
            "",
            f"agreement: **{self.agreement}**"
            + ("" if self.quantum_formula_ok else " (quantum formula FAILED)"),
            "",
            "| coordinates | quantum | status |",
            "|---|---|---|",
        ]
        expected_set = {f.coordinates for f in self.expected}
        boundary_set = {f.coordinates for f in self.boundary}
        for f in self.found:
            status = (
                "expected"
                if f.coordinates in expected_set
                else "boundary" if f.coordinates in boundary_set else "EXTRA"
            )
            lines.append(f"| {f.coordinates} | {f.quantum} | {status} |")
        for d in self.diffs:
            lines.append(f"- {d}")
        return "\n".join(lines)


def _sift(
    entry: VarietyCatalogEntry, candidates: list[tuple[int, ...]], defect: int
) -> tuple[list[FoundLine], tuple[tuple[instanton.Check, int], ...]]:
    """The members in candidate order, and how many candidates each condition rejected.

    ``candidates`` are int tuples of the entry's Picard rank, unchecked.  Each
    condition, in list order, filters the candidates that passed every
    earlier one (:meth:`instanton.InstantonConditions.sift`), reading one
    column of their rows from the entry's line-bundle memo
    (``cohomology._rows``), keyed by the survivors translated by ``t h``
    whole: transposed once, each coordinate axis shifted, every loop in C.
    Nested boxes and the two defects share most twisted bundles, so each
    distinct bundle reaches its engine once per process.
    """
    n, h = entry.dimension, polarization_coords(entry)
    conditions = instanton.InstantonConditions(n, defect)
    read, add, repeat = cohomology._rows(entry).__getitem__, operator.add, itertools.repeat

    def column_of(t: int, survivors: list[tuple[int, ...]]) -> Iterator[CohVector]:
        axes = [map(add, axis, repeat(t * v)) for axis, v in zip(zip(*survivors), h)]
        return map(read, zip(*axes))

    members, rejected = conditions.sift(candidates, column_of)
    # the quantum number is h^1(E(-h))
    found = [FoundLine(c, defect, row.dims[1]) for c, row in zip(members, column_of(-1, members))]
    return found, tuple(zip(conditions.checks, rejected))


def _assemble_report(
    family: str,
    defect: int,
    box: int,
    found: list[FoundLine],
    rejections: tuple[tuple[instanton.Check, int], ...],
    expected: list[FoundLine],
    boundary_candidates: list[FoundLine],
) -> ClassificationReport:
    found_map = {f.coordinates: f for f in found}
    expected_map = {f.coordinates: f for f in expected}
    boundary = [f for f in found if f.coordinates in {b.coordinates for b in boundary_candidates}]
    diffs: list[str] = []
    missing = [c for c in expected_map if c not in found_map]
    extras = [
        f for f in found if f.coordinates not in expected_map and f not in boundary
    ]
    for c in missing:
        diffs.append(f"expected member {c} not found by the brute-force oracle")
    for f in extras:
        diffs.append(f"oracle found {f.coordinates} (defect {f.defect}, q={f.quantum}) outside the family")
    for f in boundary:
        diffs.append(
            f"boundary member {f.coordinates} (a=0) passes the oracle with q={f.quantum};"
            " the closed-form family starts at a >= 1"
        )
    quantum_ok = True
    for c, f in found_map.items():
        if c in expected_map and f.quantum != expected_map[c].quantum:
            quantum_ok = False
            diffs.append(
                f"quantum mismatch at {c}: oracle {f.quantum} vs formula {expected_map[c].quantum}"
            )
    if missing or extras or not quantum_ok:
        agreement = "mismatch"
    elif boundary:
        agreement = "superset"
    else:
        agreement = "exact"
    return ClassificationReport(
        family,
        defect,
        box,
        tuple(found),
        tuple(expected),
        tuple(boundary),
        agreement,
        tuple(diffs),
        quantum_ok,
        rejections,
    )


#: the closed-form line-bundle family per scanned (kind, defect): the member
#: ``a -> (coordinates, quantum number)``, stated for a >= 1; the a = 0 member is
#: adjudicated by the oracle and reported as a boundary case
_FAMILIES = {
    # O(-a h1 + (a + 2 - defect) h2), quantum number (2 - defect)/2 a (a + 2 - defect)
    ("flag3", 0): lambda a: ((-a, a + 2), a * (a + 2)),
    ("flag3", 1): lambda a: ((-a, a + 1), a * (a + 1) // 2),
    # O(-a h1 + h2 + (2 + a) h3) up to permutation, quantum number a (a + 2); the
    # degree condition on c1 is odd for defect 1, so that scan must come back empty
    ("triple_p1", 0): lambda a: (tuple(sorted((-a, 1, 2 + a))), a * (a + 2)),
    ("triple_p1", 1): None,
}


def classify_lines(
    entry: VarietyCatalogEntry, box: int = DEFAULT_BOX, defect: int = 0
) -> ClassificationReport:
    """Enumerate instanton line bundles on ``entry`` over ``[-box, box]^rank``.

    Candidates are canonicalized under coordinate permutations (the sorted,
    lexicographically minimal representative), which are symmetries of both
    scanned kinds.  The oracle's members are compared with the kind's
    closed-form family (``_FAMILIES``) inside the box, an int of at least 4.
    """
    if type(box) is not int:
        raise ValueError(f"box must be an int, got {box!r}")
    if box < 4:
        raise ValueError("box >= 4")
    if (entry.kind, defect) not in _FAMILIES:
        raise ValueError(f"no closed-form line-bundle family on {entry.variety_id} with defect {defect}")
    candidates = list(itertools.combinations_with_replacement(range(-box, box + 1), entry.picard_rank()))
    found, rejections = _sift(entry, candidates, defect)
    member = _FAMILIES[entry.kind, defect]
    lines = [FoundLine(c, defect, q) for c, q in map(member, range(box + 1))] if member else []
    family = [f for f in lines if max(map(abs, f.coordinates)) <= box]
    return _assemble_report(entry.variety_id, defect, box, found, rejections, family[1:], family[:1])


def classify_flag_lines(box: int = DEFAULT_BOX, defect: int = 0) -> ClassificationReport:
    """:func:`classify_lines` on the flag 3-fold."""
    return classify_lines(catalog.flag3(), box, defect)


def classify_segre_lines(box: int = DEFAULT_BOX, defect: int = 0) -> ClassificationReport:
    """:func:`classify_lines` on P^1 x P^1 x P^1."""
    return classify_lines(catalog.triple_p1(), box, defect)
