"""Reports serialize by one rule: their JSON is their fields, by name, in declaration order."""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from instanton_lab import catalog, classify, monads, replays
from instanton_lab.util import fields_json

#: type -> a value of it
REPORTS = {
    "FoundLine": lambda: classify.classify_flag_lines(4).found[0],
    "ClassificationReport": lambda: classify.classify_flag_lines(4, 1),
    "Constraint": lambda: monads.monad_acm(catalog.quadric(3), 0, 2).constraints[0],
    "MonadShape": lambda: monads.monad_acm(catalog.quadric(3), 0, 2),
    "StabilityVerdict": lambda: replays.hoppe_rank2_from_eps(0, 1, 0),
    "StabilityCaseReport": lambda: replays.cyclic_rank2_stability_cases(3, 1, -4, 0),
    "FanoBridgeReport": lambda: replays.fano_instanton_bridge(1, 0, 1),
    "SegreStableReport": lambda: replays.segre_stable_example(2),
    "ScrollConstructionReport": lambda: replays.scroll_construction_report((1, 1, 2), 1),
    "PrimeFanoReport": lambda: replays.prime_fano_family(5, 1),
}

#: fields a report keeps out of its JSON
SKIPPED = {"ClassificationReport": ["rejections"]}
#: fields a report writes under another key
RENAMED = {"ScrollConstructionReport": {"variety_id": "variety"}}


@pytest.mark.parametrize("name", REPORTS)
def test_report_json_is_its_fields_in_declaration_order(name):
    value = REPORTS[name]()
    assert type(value).__name__ == name
    declared = list(inspect.signature(type(value)).parameters)
    keys = [RENAMED.get(name, {}).get(f, f) for f in declared if f not in SKIPPED.get(name, [])]
    assert list(value.to_json()) == keys
    json.dumps(value.to_json())


@pytest.mark.parametrize(
    "shape",
    [
        monads.monad_acm(catalog.quadric(3), 0, 2),
        monads.monad_pn(3, 1, 1, 0, 2, 2),
        monads.monad_space_nonordinary(3, 4, 1, 1, 1),
    ],
    ids=["acm", "pn", "space1"],
)
def test_monad_shapes_round_trip_through_json(shape):
    data = json.loads(json.dumps(shape.to_json()))
    assert data == shape.to_json()


def test_fields_json_reads_dataclass_fields_and_skips_by_name():
    @dataclasses.dataclass(frozen=True)
    class Pair:
        right: tuple[int, ...]
        left: int

    assert list(fields_json(Pair((1, (2, 3)), 0))) == ["right", "left"]
    assert fields_json(Pair((1, (2, 3)), 0)) == {"right": [1, [2, 3]], "left": 0}
    assert fields_json(Pair((), 0), skip=("right",)) == {"left": 0}
