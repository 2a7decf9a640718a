from __future__ import annotations

import argparse
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from instanton_lab import catalog, cli
from instanton_lab.cli import main
from instanton_lab.cohomology import CohomologyTable, build_table
from instanton_lab.errors import MalformedDataError, UnknownVarietyError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cohom_p3(capsys):
    code, out, _ = run(capsys, "cohom", "--variety", "p3", "--bundle", "O:2", "--window", "0:0")
    assert code == 0
    assert "| 0 | 10 | 0 | 0 | 0 | 10 |" in out


def test_cohom_flag_dash_bundle(capsys):
    code, out, _ = run(capsys, "cohom", "--variety", "flag3", "--bundle", "-1,3", "--window", "-3:0")
    assert code == 0
    assert "| -1 | 0 | 3 | 0 | 0 | -3 |" in out


def test_cohom_scroll_zero_rows(capsys):
    code, out, _ = run(
        capsys, "cohom", "--variety", "scroll-p1:1,1,1", "--bundle", "h:-1", "--window", "-1:0"
    )
    assert code == 0
    assert "| -1 | 0 | 0 | 0 | 0 | 0 |" in out


def test_cohom_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "cohom", "--variety", "triple-p1", "--bundle", "-1,1,3", "--json"
    )
    assert code == 0
    table = CohomologyTable.from_json(json.loads(out))
    assert table.row(-1)[1] == 3


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--variety", "triple-p1", "--bundle", "-1,1,3")
    assert code == 0 and "(0, 3)" in out
    code, _, _ = run(capsys, "check", "--variety", "p3", "--bundle", "O:1")
    assert code == 1
    code, _, err = run(capsys, "check", "--variety", "p3", "--bundle", "O:0", "--window", "-1:0")
    assert code == 2 and "missing twists" in err


def test_check_verdict_json_roundtrip(capsys):
    from instanton_lab.instanton import check_instanton

    code, out, _ = run(capsys, "check", "--variety", "q3", "--bundle", "O:0", "--json")
    assert code == 0
    verdict = check_instanton(build_table(catalog.quadric(3), (0,), (-4, 1)))
    assert verdict.admissible == ((1, 0),)
    assert json.loads(out) == verdict.to_json()


def test_check_from_table_file(tmp_path, capsys):
    from instanton_lab import catalog
    from instanton_lab.cohomology import build_table

    table = build_table(catalog.flag3(), (-1, 3), (-4, 0))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json()))
    code, out, _ = run(capsys, "check", "--table", str(path))
    assert code == 0 and "(0, 3)" in out


def test_check_reads_a_table_with_rational_chern_classes(tmp_path, capsys, rebuild):
    """c2 = (29/10) H^2 of the rank-two prime Fano family on genus 6 is written as "29/10"."""
    from fractions import Fraction

    from instanton_lab.rr import ChernData

    pf = catalog.prime_fano(6)
    H = pf.ring.gen("H")
    table = build_table(pf, [((0,), 2)], (-4, 1))
    rational = rebuild(table, chern=ChernData(2, 3 * H, Fraction(29, 10) * H * H, 0 * H**3))
    results = []
    for t in (table, rational):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(t.to_json()))
        results.append(run(capsys, "check", "--table", str(path), "--json"))
    assert '"29/10"' in path.read_text()
    assert results[1] == results[0] and results[0][0] in (0, 1)


def test_check_reads_scroll_table_written_by_cohom(tmp_path, capsys):
    """The table's id is an entry id (``scroll_p1(1,1,1)``), not a ring id."""
    code, out, _ = run(
        capsys, "cohom", "--variety", "scroll-p1:1,1,1", "--bundle", "h:0,f:2", "--json"
    )
    assert code == 0
    path = tmp_path / "table.json"
    path.write_text(out)
    code, out, _ = run(capsys, "check", "--table", str(path))
    assert code == 0 and "(0, 0)" in out


def test_chi_command(capsys):
    code, out, _ = run(capsys, "chi", "--variety", "flag3", "--bundle", "-1,3", "--twist", "-1")
    assert code == 0 and "chi(E(-1h)) = -3" in out


def test_chi_beyond_riemann_roch_names_the_missed_twist(capsys):
    code, out, err = run(
        capsys, "chi", "--variety", "p4", "--bundle", "O:0", "--window", "0:1", "--twist", "5"
    )
    assert code == 2 and out == ""
    assert "Riemann-Roch stops at dimension 3 and the window [0, 1] misses t = 5" in err


@pytest.mark.parametrize("window", ["3", "a:1", "1:", ":"])
def test_malformed_window_names_the_form(capsys, window):
    with pytest.raises(MalformedDataError, match="TMIN:TMAX"):
        cli.parse_window(window)
    code, out, err = run(capsys, "cohom", "--variety", "p3", "--bundle", "O:0", "--window", window)
    assert code == 2 and out == ""
    assert f"window {window!r} is not of the form TMIN:TMAX" in err


@pytest.mark.parametrize("command", ["cohom", "check", "chi"])
def test_reversed_window_exits_2_with_the_table_builders_message(capsys, command):
    """``parse_window`` reads two ints; ``build_table`` refuses the reversed window."""
    assert cli.parse_window("3:1") == (3, 1)
    argv = (command, "--variety", "p3", "--bundle", "O:0", "--window", "3:1")
    assert run(capsys, *argv) == (2, "", "error: window (3, 1) has tmin > tmax\n")


def test_monad_pn_render(capsys):
    code, out, _ = run(
        capsys, "monad", "pn", "--n", "3", "--defect", "0", "--rank", "2", "--quantum", "2"
    )
    assert code == 0
    assert "O(-1)^2 -> O^6 -> O(1)^2" in out


def test_monad_quadric(capsys):
    code, out, _ = run(
        capsys, "monad", "quadric", "--n", "3", "--rank", "2", "--quantum", "3"
    )
    assert code == 0 and "s = 4" in out


def test_monad_quadric_on_even_n_leaves_the_split_open(capsys):
    argv = ("monad", "quadric", "--n", "4", "--rank", "2", "--quantum", "1")
    text = "spinor multiplicity s = 2 (s' + s''; split undetermined without spinor pairings)\n"
    assert run(capsys, *argv) == (0, text, "")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out) == {"s_total": 2, "split": None}


def test_classify_flag_cli(capsys):
    code, out, _ = run(capsys, "classify", "flag", "--box", "4", "--defect", "0")
    assert code == 0
    assert "superset" in out and "(-1, 3)" in out


#: SHA-256 of the stdout of ``classify FAMILY --box 6 --defect D --json``; a
#: scan change that reorders or changes members, quantum numbers or diffs
#: breaks these
CLASSIFY_GOLDEN = {
    ("flag", 0): "575376dbbb95290e2a7aed69292ba4af7319fe04b658191c1a68f92962e98f07",
    ("flag", 1): "a9a5ff3a522af4b5df2e4167d78784445dcb420548609b3e3e98cb3e09f3ceaf",
    ("segre", 0): "03abde714aaf8e598b89d165c31c4170e7f09ecce5899aea16e8e037faba61a7",
    ("segre", 1): "e78c4216d003e77fbd5f8a95fd6b02959e09e0530bb2607654e6602eff866ac4",
}


@pytest.mark.parametrize("family, defect", CLASSIFY_GOLDEN)
def test_classify_json_golden(capsys, family, defect):
    code, out, _ = run(capsys, "classify", family, "--box", "6", "--defect", str(defect), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_GOLDEN[family, defect]


#: SHA-256 of the stdout of ``classify FAMILY --box BOX --defect D --json`` at the
#: other boxes, taken before the two scans became one ``classify_lines``
CLASSIFY_GOLDEN_BOXES = {
    ("flag", 4, 0): "9eb3f04d8338832ca85aa6a461394df76ade7049f11f6090ff3cfa8e0079db09",
    ("flag", 4, 1): "3639ad6d14f510b6e80928f08b41ba28dc79fdd68cea313733156782c2d40109",
    ("flag", 8, 0): "84673a2a7dcf417142a799f5e76907f5cfc74f670619329cb5cfc35831928547",
    ("flag", 8, 1): "d3309256470717d31ba6f489d6f2e64d0aca59a8d5bc21193311a69a59195bf7",
    ("flag", 10, 0): "3ab23b2150a500dd2e95fca13fa0da084fec3cdc04275bbaf026d48f392a1d13",
    ("flag", 10, 1): "380d5e545cd0076a8b443cd5b4cae3765ef79878c7854fbe2ebbd47f5953f71c",
    ("segre", 4, 0): "652bffa5a71e3cb4b6d2730ddadc6d325cb4bad748ef4d2dfea81b521a6a1b76",
    ("segre", 4, 1): "74ebe6e0d24ad0dad478fbb88bb39f3e65dd1b44d80f690f0e89a73044ad4424",
    ("segre", 8, 0): "d5ab2140886d866222c15843a6124549977169f97aeaea3f932382bd8a0cd531",
    ("segre", 8, 1): "7737da37d4ad4c09337a194f75c77c68c4c0d9cb54d000f132889af8699ec1d3",
    ("segre", 10, 0): "8b4e368a30745fb688698ffcb379d42be5e5aa6d936b546cf86aa31a096157aa",
    ("segre", 10, 1): "bbc7f4083e0394421734efca49cc092ca504643514c0cca00607d217fee788ca",
}


@pytest.mark.parametrize("family, box, defect", CLASSIFY_GOLDEN_BOXES)
def test_classify_json_golden_at_other_boxes(capsys, family, box, defect):
    code, out, _ = run(capsys, "classify", family, "--box", str(box), "--defect", str(defect), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_GOLDEN_BOXES[family, box, defect]


#: SHA-256 of the stdout of theta-spelled bundles on generic curves, taken
#: before theta twists became curve degrees
THETA_GOLDEN = {
    "cohom --variety curve:g=2,deg=3 --bundle theta:1 --json":
        "c8f1c0ad64ab6323ac43e8fa50795a9666d29612183c948f303e3bb281cb482f",
    "cohom --variety curve:g=2,deg=3 --bundle theta:1+theta:0 --json":
        "2848666b1a1b6e21fd2666185dedb5a6b4e32ef350f00a3bde787541c3c1275b",
    "cohom --variety curve:g=2,deg=2 --bundle theta:1^3 --window -1:1 --json":
        "8504f619d4acbfa64265076e6db0d5b8b0f7554d960ba3398fe3158426477203",
    "check --variety curve:g=2,deg=2 --bundle theta:1+theta:0 --json":
        "d0e0b1e1a36e00fc2c4d60d88da66080c31d00b5ffc909b02d05fac21c8b7274",
    "check --variety curve:g=2,deg=2 --bundle theta:1^3 --json":
        "66767fe66f674662cab36b1f2e707fa448a9c1130cee168578076f801501cec4",
    "chi --variety curve:g=2,deg=3 --bundle theta:1+theta:0 --json":
        "2ab2e9c4cecc81290b2271837bb6e8ba03d6a175e52a7b1e09788ad545dca112",
    "chi --variety curve:g=3,deg=2 --bundle theta:2 --twist -3 --json":
        "5a34b86bdb66bc00fb7a82c31e473648bbbe71db75cd6bf559a1f4b043415e58",
}


@pytest.mark.parametrize("argv", THETA_GOLDEN)
def test_theta_bundles_on_generic_curves_golden(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == THETA_GOLDEN[argv]


def test_theta_table_on_the_line_has_no_assumptions(capsys):
    """On the exact genus-0 model theta + s h is O(2s - 1): nothing generic is assumed."""
    argv = ["cohom", "--variety", "curve:g=0,deg=2,model=exact_p1", "--bundle", "theta:1+theta:0", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    entry = catalog.curve(0, 2, "exact_p1")
    bundles = [(catalog.theta_coords(entry, 1), 1), (catalog.theta_coords(entry, 0), 1)]
    assert bundles == [((1,), 1), ((-1,), 1)]
    assert data == build_table(entry, bundles, (-2, 1)).to_json() and "assumptions" not in data


def test_theta_and_plain_summands_mix(capsys):
    """theta:0 on a genus-2 curve of degree 3 is the degree-1 bundle, spelled either way."""
    outputs = [
        run(capsys, "cohom", "--variety", "curve:g=2,deg=3", "--bundle", bundle, "--json")
        for bundle in ("theta:1+theta:0", "theta:1+1", "4+theta:0", "4+1")
    ]
    assert outputs[0][0] == 0 and all(o == outputs[0] for o in outputs)


@pytest.mark.parametrize("variety", ["p3", "flag3", "scroll-p1:1,1,1"])
def test_theta_off_curves_exits_2(capsys, variety):
    code, out, err = run(capsys, "cohom", "--variety", variety, "--bundle", "theta:1")
    assert code == 2 and out == "" and "theta twists only exist on curve entries" in err


def _float_dim(data):
    data["rows"][0]["h"] = [0.5, 0, 0, 0]


def _bool_dim(data):
    data["rows"][1]["h"][1] = True


def _float_window(data):
    data["window"]["tmin"] = -4.0


def _float_twist(data):
    data["rows"][0]["t"] = -4.0


@pytest.mark.parametrize(
    "mutate",
    [
        _float_dim,
        _bool_dim,
        _float_window,
        _float_twist,
        lambda data: data.update(rank=-3),
        lambda data: data.update(rank="x"),
        lambda data: data.update(rank=True),
        lambda data: data.update(assumptions="generic Brill-Noether position"),
        lambda data: data.update(assumptions=[1]),
        lambda data: data["chern"].update(rank=2.5),
        lambda data: data["chern"].update(rank=True),
        lambda data: data["chern"].update(rank=7),
        lambda data: data["chern"].update(c1="x"),
        lambda data: data["chern"].update(c1=[[[1, 0], 1, 2]]),
        lambda data: data["chern"].update(c1=[[[1.0, 0], 1]]),
        lambda data: data["chern"].update(c1=[[[True, 0], 1]]),
        lambda data: data["rows"][0].update(h="0000"),
        lambda data: data["rows"][0].update(h={"a": 1}),
        lambda data: data["rows"][0].update(h=5),
        lambda data: data["rows"][0].update(h=None),
        *[lambda data, chern=chern: data.update(chern=chern) for chern in ({}, [], 0, False, "", None)],
    ],
    ids=["float-dim", "bool-dim", "float-window", "float-twist", "negative-rank", "string-rank", "bool-rank",
         "string-assumptions", "int-assumption", "float-chern-rank", "bool-chern-rank", "other-chern-rank",
         "string-c1", "three-item-term", "float-exponent", "bool-exponent", "string-dims", "dict-dims",
         "int-dims", "null-dims",
         "dict-chern", "list-chern", "zero-chern", "false-chern", "empty-chern", "null-chern"],
)
def test_malformed_table_exits_2(tmp_path, capsys, mutate):
    data = build_table(catalog.flag3(), (-1, 3), (-4, 0)).to_json()
    mutate(data)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedDataError):
        CohomologyTable.from_json(json.loads(path.read_text()))
    code, out, err = run(capsys, "check", "--table", str(path))
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def _six_entry_rows(data):
    for row in data["rows"]:
        row["h"] += [0, 0]


@pytest.mark.parametrize(
    "mutate, error",
    [
        (lambda data: data.update(variety=5), MalformedDataError),
        (lambda data: data.update(variety="no_such_variety"), UnknownVarietyError),
        (_six_entry_rows, MalformedDataError),
    ],
    ids=["int-variety", "unknown-variety", "six-entry-rows"],
)
def test_table_without_chern_is_checked_against_its_variety(tmp_path, capsys, mutate, error):
    """The variety resolves to a catalog ring, and fixes the row length, with no ``chern`` block too."""
    data = build_table(catalog.flag3(), (-1, 3), (-4, 0), with_chern=False).to_json()
    assert "chern" not in data
    mutate(data)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    with pytest.raises(error):
        CohomologyTable.from_json(json.loads(path.read_text()))
    code, out, err = run(capsys, "check", "--table", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")
    if mutate is _six_entry_rows:
        assert "h^0, ..., h^3" in err


@pytest.mark.parametrize("with_chern", [True, False], ids=["chern", "no-chern"])
@pytest.mark.parametrize(
    "entry, variety",
    [
        (catalog.projective_space(3), "projective_space(3;h=1)"),
        (catalog.projective_space(3), "projective_space(03)"),
        (catalog.quadric(3), "quadric_numerical(3)"),
        (catalog.scroll_p1((1, 1, 1)), "scroll(3,3)"),
        (catalog.curve(2, 3), "curve(2)"),
        (catalog.scroll_p1((1, 2)), "scroll_p1(2,1)"),
        (catalog.curve(2, 3), "curve(2;deg=3;exact_p1)"),
        (catalog.projective_space(3), "projective_space(" + "9" * 5000 + ")"),
    ],
    ids=["default-h", "padded", "alias", "scroll-ring", "curve-ring", "unsorted", "exact-p1-genus-2", "5000-digits"],
)
def test_check_table_refuses_ids_no_constructor_writes(tmp_path, capsys, entry, variety, with_chern):
    """A table's variety must be an id a catalog constructor writes: another spelling of a table's
    own entry exits 2 with one error line, a 5 000-digit dimension included."""
    data = build_table(entry, (0,) * entry.picard_rank(), (-3, 0), with_chern=with_chern).to_json()
    data["variety"] = variety
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--table", str(path))
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_classify_cyclic_cli(capsys):
    code, out, _ = run(
        capsys, "classify", "cyclic", "--n", "3", "--u", "1", "--v", "-3", "--defect", "1"
    )
    assert code == 0 and "assertion: 3" in out
    code, _, _ = run(
        capsys, "classify", "cyclic", "--n", "3", "--u", "1", "--v", "-2", "--defect", "0"
    )
    assert code == 1


def test_stability_cli(capsys):
    code, out, _ = run(
        capsys, "stability", "--n", "3", "--u", "1", "--v", "-4", "--defect", "0",
        "--h0-norm", "1", "--h0-norm-minus", "0",
    )
    assert code == 0
    assert "exception 2a" in out and "semistable" in out


def test_scroll_cli(capsys):
    code, out, _ = run(capsys, "scroll", "--degrees", "1,1,1", "--k", "1")
    assert code == 0
    assert "quantum number (chi-additivity): 1" in out
    assert "h^1(E (x) E^v) = 8" in out


def test_scroll_cli_over_a_generic_curve_and_at_k_0(capsys):
    """``--n/--deg`` builds a generic scroll (chi-level); k = 0 adds the non-split Ulrich pair."""
    assert run(capsys, "scroll", "--n", "3", "--deg", "4", "--k", "1") == (0, (
        "scroll scroll_generic(3;g=0;deg=4): k = 1\n"
        "quantum number (chi-additivity): 1  [chi-level]\n"
        "decomposable: False\n"
        "h^1(E (x) E^v) = 10\n"
    ), "")
    assert run(capsys, "scroll", "--degrees", "1,1,1", "--k", "0") == (0, (
        "scroll scroll_p1(1,1,1): k = 0\n"
        "quantum number (chi-additivity): 0  [exact]\n"
        "decomposable: True (O((g+theta)f) (+) O(h+theta f))\n"
        "h^1(E (x) E^v) = 2\n"
        "non-split Ulrich pair variant: h^1(End) = 2\n"
    ), "")


def test_fano_cli(capsys):
    code, out, _ = run(capsys, "fano", "--index", "1", "--defect", "0", "--epsilon", "1")
    assert code == 0 and "q_X^eps = 0" in out


def test_resolution_check_cli(capsys):
    code, out, _ = run(
        capsys, "resolution-check", "--ambient", "3", "--v", "0", "--w", "0",
        "--beta", "0,0:1", "--n", "3", "--defect", "0", "--quantum", "0", "--chi0", "1",
    )
    assert code == 0 and "True" in out
    code, _, _ = run(
        capsys, "resolution-check", "--ambient", "3", "--v", "0", "--w", "0",
        "--beta", "0,1:1", "--n", "3", "--defect", "0", "--quantum", "0", "--chi0", "1",
    )
    assert code == 1


def test_veronese_cli(capsys):
    code, out, _ = run(capsys, "veronese", "--n", "3", "--rank", "2", "--d", "2", "--hn", "2")
    assert code == 0 and "quantum number: 2" in out
    code, out, _ = run(capsys, "veronese", "--n", "2", "--rank", "1", "--d", "3", "--hn", "1")
    assert code == 0 and "1" in out
    for d, rank in (("-1", "2"), ("3", "-2")):  # O(-h) is not ample; negative rank
        code, out, err = run(capsys, "veronese", "--n", "3", "--rank", rank, "--d", d, "--hn", "1")
        assert code == 2 and out == "" and "error" in err


def test_bad_variety_exit(capsys):
    code, _, err = run(capsys, "cohom", "--variety", "nope", "--bundle", "O:0")
    assert code == 2 and "error" in err


def test_monad_json_roundtrip_via_cli(capsys):
    from instanton_lab.monads import monad_pn

    code, out, _ = run(
        capsys, "monad", "pn", "--n", "3", "--defect", "0", "--rank", "2",
        "--quantum", "2", "--json",
    )
    assert code == 0
    assert json.loads(out) == monad_pn(3, 0, 2, -2).to_json()


def test_monad_pn_rank_prints_what_its_chi0_prints(capsys):
    """``--rank R`` is ``--chi0 chi_from_rank(R)``: stdout, stderr and exit code."""
    from instanton_lab.monads import chi_from_rank

    for n, defect, q in itertools.product(range(2, 7), (0, 1), range(4)):
        base = ("monad", "pn", "--n", str(n), "--defect", str(defect), "--quantum", str(q))
        base += ("--h0", "4", "--hn", "5") if defect else ()
        for rank in range(0, 10, 1 + defect):
            by_chi0 = run(capsys, *base, "--chi0", str(chi_from_rank(n, defect, q, rank)))
            assert run(capsys, *base, "--rank", str(rank)) == by_chi0, (n, defect, q, rank)


#: ``monad`` leaf argv -> its refusal on stderr: the ``pn`` ones as they have always read (the
#: parity check before the n >= 2 one), the filtrations' naming the pairings they take
MONAD_REFUSALS = {
    "pn --n 3 --defect 1 --quantum 0 --rank 3": "error: non-ordinary rank must be even\n",
    "pn --n 1 --defect 1 --quantum 1 --rank 5 --h0 1 --hn 1": "error: non-ordinary rank must be even\n",
    "pn --n 1 --defect 0 --quantum 1 --rank 2": "error: monads are synthesized for n >= 2\n",
    "pn --n 0 --defect 1 --quantum 1 --rank 2 --h0 1 --hn 1": "error: monads are synthesized for n >= 2\n",
    "pn --n 1 --defect 0 --quantum 0 --chi0 2": "error: monads are synthesized for n >= 2\n",
    "scroll3 --deg 3 --rank 2 --quantum 0 --inputs 1,2": "error: the filtration takes 3 inputs x1,x2,x3, got 2\n",
    "p1p3 --rank 2 --quantum 0 --inputs 1,2,3,4,5": "error: the filtration takes 4 inputs x1,x2,x3,x4, got 5\n",
}


@pytest.mark.parametrize("argv", MONAD_REFUSALS)
def test_monad_refusals_exit_2(capsys, argv):
    assert run(capsys, "monad", *argv.split()) == (2, "", MONAD_REFUSALS[argv])


def test_json_goes_after_the_leaf(capsys):
    pn = ("--n", "3", "--defect", "0", "--rank", "2", "--quantum", "2")
    code, out, _ = run(capsys, "monad", "pn", *pn, "--json")
    assert code == 0 and json.loads(out)["terms"]
    code, out, err = run(capsys, "monad", "--json", "pn", *pn)
    assert code == 2 and out == "" and "--json" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "cyclic", "--v", "-4"),
        ("classify", "cyclic", "--n", "3"),
        ("scroll", "--k", "1"),
        ("scroll", "--n", "3", "--k", "1"),
        ("scroll", "--degrees", "1,1,1", "--n", "3", "--deg", "4", "--k", "1"),
        ("check",),
        ("check", "--variety", "p3"),
        ("check", "--bundle", "O:0"),
        ("monad", "pn", "--n", "3", "--defect", "0", "--quantum", "2"),
        ("monad", "pn", "--n", "3", "--defect", "0", "--quantum", "1", "--chi0", "0",
         "--h0", "7", "--hn", "9"),
    ],
    ids=" ".join,
)
def test_missing_or_conflicting_inputs_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "error" in err


def test_check_table_excludes_variety_bundle_and_window(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(build_table(catalog.flag3(), (-1, 3), (-4, 0)).to_json()))
    for extra in (("--variety", "flag3"), ("--bundle", "-1,3"), ("--window", "-4:0")):
        code, out, err = run(capsys, "check", "--table", str(path), *extra)
        assert code == 2 and out == "" and "check needs --table" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("veronese", "--n", "3", "--rank", "2", "--d", "2", "--hn", "2", "--window", "1:2"),
        ("fano", "--index", "1", "--defect", "0", "--epsilon", "1", "--box", "3"),
        ("classify", "cyclic", "--n", "3", "--v", "-3", "--defect", "1", "--box", "4"),
        ("monad", "quadric", "--n", "3", "--rank", "2", "--quantum", "3", "--window", "0:1"),
        ("cohom", "--variety", "p3", "--bundle", "O:0", "--box", "4"),
    ],
    ids=" ".join,
)
def test_unread_options_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "unrecognized arguments" in err


def test_scroll_divisor_names_only_on_scrolls(capsys):
    code, _, err = run(capsys, "cohom", "--variety", "flag3", "--bundle", "h:1")
    assert code == 2 and "h1" in err
    code, _, _ = run(capsys, "cohom", "--variety", "scroll-p1:1,1,1", "--bundle", "h:1,g:2")
    assert code == 2


@pytest.mark.parametrize("text, key", [("scroll:n=3", "deg="), ("scroll:deg=4", "n="), ("fano", "g=")])
def test_parse_variety_names_the_missing_key(capsys, text, key):
    with pytest.raises(UnknownVarietyError, match=key):
        catalog.parse_variety(text)
    code, _, err = run(capsys, "cohom", "--variety", text, "--bundle", "0")
    assert code == 2 and key in err


@pytest.mark.parametrize("key", ["rows", "window", "c1"])
def test_table_missing_a_key_exits_2(tmp_path, capsys, key):
    data = build_table(catalog.flag3(), (-1, 3), (-4, 0)).to_json()
    del (data["chern"] if key == "c1" else data)[key]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedDataError, match=key):
        CohomologyTable.from_json(data)
    code, out, err = run(capsys, "check", "--table", str(path))
    assert code == 2 and out == "" and key in err


def test_internal_error_exits_3_with_traceback(capsys, monkeypatch):
    def broken(args):
        return 1 // 0

    monkeypatch.setattr(cli, "cmd_veronese", broken)
    code, out, err = run(capsys, "veronese", "--n", "3", "--rank", "2", "--d", "2", "--hn", "2")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == "" and "Traceback" in err and "ZeroDivisionError" in err


def test_an_internal_value_error_exits_3_with_traceback(capsys, monkeypatch):
    """Input refusals are typed, so a bare ``ValueError`` is a bug of the program, not bad input."""
    def broken(args):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "cmd_veronese", broken)
    code, out, err = run(capsys, "veronese", "--n", "3", "--rank", "2", "--d", "2", "--hn", "2")
    assert code == cli.EXIT_INTERNAL
    assert out == "" and "Traceback" in err and "ValueError: internal" in err


NOT_AN_INT = "error: invalid literal for int() with base 10: 'x'\n"
BETA = ("resolution-check", "--ambient", "3", "--v", "0", "--w", "0", "--n", "3", "--defect", "0",
        "--quantum", "0", "--chi0", "1", "--beta")

#: argv with a malformed value at each of the CLI's own integer parse sites -> its one error line
MALFORMED_INTEGERS = {
    # parse_bundle: a multiplicity, theta:s, O:t, h:t,f:a and a plain coordinate tuple
    ("cohom", "--variety", "p3", "--bundle", "1^x"): NOT_AN_INT,
    ("cohom", "--variety", "curve:g=2,deg=3", "--bundle", "theta:x"): NOT_AN_INT,
    ("cohom", "--variety", "fano:g=5", "--bundle", "O:x"): NOT_AN_INT,
    ("cohom", "--variety", "scroll-p1:1,1,2", "--bundle", "h:1,f:x"): NOT_AN_INT,
    ("cohom", "--variety", "scroll-p1:1,1,2", "--bundle", "h:1,f"):
        "error: 'h:1,f' is not of the form h:t or h:t,f:a\n",
    ("cohom", "--variety", "flag3", "--bundle", "1,x"): NOT_AN_INT,
    # parse_variety
    ("cohom", "--variety", "p3:h=x", "--bundle", "0"): NOT_AN_INT,
    ("cohom", "--variety", "quadric:x", "--bundle", "0"): NOT_AN_INT,
    ("cohom", "--variety", "scroll-p1:1,x", "--bundle", "0"): NOT_AN_INT,
    ("cohom", "--variety", "scroll:n=x,deg=4", "--bundle", "0"): NOT_AN_INT,
    ("cohom", "--variety", "curve:g=x", "--bundle", "0"): NOT_AN_INT,
    ("cohom", "--variety", "fano:g=x", "--bundle", "0"): NOT_AN_INT,
    # _int_tuple
    ("monad", "scroll3", "--deg", "3", "--rank", "2", "--quantum", "0", "--inputs", "1,x,2"): NOT_AN_INT,
    ("scroll", "--degrees", "1,x", "--k", "1"): NOT_AN_INT,
    # resolution-check's --beta
    (*BETA, "0,x:1"): NOT_AN_INT,
    (*BETA, "0,0:x"): NOT_AN_INT,
    (*BETA, "0:1"): "error: --beta entry '0:1' is not of the form p,i:mult\n",
}


@pytest.mark.parametrize("argv", MALFORMED_INTEGERS, ids=" ".join)
def test_malformed_integers_exit_2_with_one_error_line(capsys, argv):
    assert run(capsys, *argv) == (2, "", MALFORMED_INTEGERS[argv])


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe", b"[1]"], ids=["not-json", "not-text", "list"])
def test_unreadable_table_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "table.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "check", "--table", str(path))
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def _leaves(parser, path=(), options=()):
    """(path, options along the path) for every leaf parser, help excluded."""
    parser.declare()  # a leaf declares its options on its first parse
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = options + tuple(
        a.option_strings[0]
        for a in parser._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    )
    if not subs:
        return [(" ".join(path), options)]
    return [
        leaf
        for sub in subs
        for name, child in sub.choices.items()
        for leaf in _leaves(child, path + (name,), options)
    ]


#: argv -> stdout, stderr and exit code of the top-level and group help and
#: usage errors, rendered 80 columns wide
GROUP_HELP = json.loads((Path(__file__).resolve().parent / "cli_group_help.json").read_text())


@pytest.mark.parametrize("argv", GROUP_HELP)
def test_group_help_and_usage_errors_are_golden(capsys, monkeypatch, argv):
    """A group declares its leaves on its first parse, so its help and its errors list them."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv.split())
    assert {"exit": code, "stdout": out, "stderr": err} == GROUP_HELP[argv]


#: argv -> stdout, stderr and exit code of one ``--json`` call of each leaf
#: that no other test pins byte for byte
LEAF_JSON = json.loads((Path(__file__).resolve().parent / "cli_leaf_json.json").read_text())


@pytest.mark.parametrize("argv", LEAF_JSON)
def test_leaf_json_is_golden(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert {"exit": code, "stdout": out, "stderr": err} == LEAF_JSON[argv]


def test_parser_declares_each_option_once_where_it_is_read():
    leaves = dict(_leaves(cli.build_parser()))
    assert len(leaves) == 18
    for path, options in leaves.items():
        assert len(options) == len(set(options)), path
        assert "--json" in options, path
    assert {p for p, o in leaves.items() if "--box" in o} == {"classify flag", "classify segre"}
    assert {p for p, o in leaves.items() if "--window" in o} == {"cohom", "check", "chi"}


@pytest.mark.parametrize("c1", [[[[1, 0, 0], 1]], [[[1], 1]], [[[-1, 2], 1]]])
def test_check_table_with_malformed_chern_monomial_exits_2(tmp_path, capsys, c1):
    """A c1 monomial that is not an exponent vector over (h1, h2) is bad input."""
    data = build_table(catalog.flag3(), (-1, 3), (-4, 0)).to_json()
    data["chern"]["c1"] = c1
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedDataError, match="exponent vector"):
        CohomologyTable.from_json(data)
    code, out, err = run(capsys, "check", "--table", str(path))
    assert code == 2 and out == "" and "exponent vector" in err


@pytest.mark.parametrize(
    "c1, message",
    [([[[1, 0], 1], [[1, 0], 2]], "repeated"), ([[[1, 0], 1.5]], "not an integer")],
)
def test_check_table_with_repeated_or_fractional_chern_term_exits_2(tmp_path, capsys, c1, message):
    data = build_table(catalog.flag3(), (-1, 3), (-4, 0)).to_json()
    data["chern"]["c1"] = c1
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--table", str(path))
    assert code == 2 and out == "" and message in err


def test_check_table_with_a_rank_zero_chern_block_exits_2(tmp_path, capsys):
    data = build_table(catalog.flag3(), (-1, 3), (-4, 0)).to_json()
    data["chern"]["rank"] = 0
    with pytest.raises(MalformedDataError, match="^rank must be positive$"):
        CohomologyTable.from_json(data)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--table", str(path))
    assert code == 2 and out == "" and "rank must be positive" in err


def test_exact_p1_curve_reachable_from_the_cli(capsys):
    code, out, _ = run(
        capsys, "cohom", "--variety", "curve:g=0,deg=2,model=exact_p1", "--bundle", "1", "--json"
    )
    assert code == 0
    entry = catalog.curve(0, 2, "exact_p1")
    assert json.loads(out) == build_table(entry, [((1,), 1)], (-2, 1)).to_json()


@pytest.mark.parametrize(
    "text, entry_id",
    [
        ("p3", "projective_space(3)"),
        ("p3:h=2", "projective_space(3;h=2)"),
        ("q4", "quadric(4)"),
        ("flag3", "flag3"),
        ("triple-p1", "triple_p1"),
        ("triple_p1", "triple_p1"),
        ("TRIPLE-P1", "triple_p1"),
        ("scroll-p1:1,1,2", "scroll_p1(1,1,2)"),
        ("scroll_p1:1,1,2", "scroll_p1(1,1,2)"),
        ("scroll:n=3,g=1,deg=4", "scroll_generic(3;g=1;deg=4)"),
        ("curve:g=2,deg=4", "curve(2;deg=4;generic)"),
        ("curve:g=2,deg=4,model=generic", "curve(2;deg=4;generic)"),
        ("curve:G=0,DEG=2,MODEL=exact_p1", "curve(0;deg=2;exact_p1)"),
        ("fano:g=5", "prime_fano(5)"),
    ],
)
def test_parse_variety_docstring_spellings(text, entry_id):
    assert catalog.parse_variety(text).variety_id == entry_id
