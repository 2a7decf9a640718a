from __future__ import annotations

import argparse
import json

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
    from instanton_lab.instanton import InstantonVerdict

    code, out, _ = run(capsys, "check", "--variety", "q3", "--bundle", "O:0", "--json")
    assert code == 0
    verdict = InstantonVerdict.from_json(json.loads(out))
    assert verdict.admissible == ((1, 0),)


def test_check_from_table_file(tmp_path, capsys):
    from instanton_lab import catalog
    from instanton_lab.cohomology import build_table

    table = build_table(catalog.flag3(), (-1, 3), (-4, 0))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json()))
    code, out, _ = run(capsys, "check", "--table", str(path))
    assert code == 0 and "(0, 3)" in out


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


def test_classify_flag_cli(capsys):
    code, out, _ = run(capsys, "classify", "flag", "--box", "4", "--defect", "0")
    assert code == 0
    assert "superset" in out and "(-1, 3)" in out


def test_classify_cyclic_cli(capsys):
    code, out, _ = run(
        capsys, "classify", "cyclic", "--n", "3", "--u", "1", "--v", "-3", "--defect", "1"
    )
    assert code == 0 and "assertion: 3" in out
    code, _, _ = run(
        capsys, "classify", "cyclic", "--n", "3", "--u", "1", "--v", "-2", "--defect", "0"
    )
    assert code == 1


def test_box_env_override(capsys, monkeypatch):
    monkeypatch.setenv("INSTANTON_LAB_BOX", "4")
    code, out, _ = run(capsys, "classify", "segre", "--defect", "0", "--json")
    assert code == 0
    assert json.loads(out)["box"] == 4


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


def test_bad_variety_exit(capsys):
    code, _, err = run(capsys, "cohom", "--variety", "nope", "--bundle", "O:0")
    assert code == 2 and "error" in err


def test_monad_json_roundtrip_via_cli(capsys):
    from instanton_lab.monads import MonadShape, monad_pn

    code, out, _ = run(
        capsys, "monad", "pn", "--n", "3", "--defect", "0", "--rank", "2",
        "--quantum", "2", "--json",
    )
    assert code == 0
    assert MonadShape.from_json(json.loads(out)) == monad_pn(3, 0, 2, -2)


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


def _leaves(parser, path=(), options=()):
    """(path, options along the path) for every leaf parser, help excluded."""
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
