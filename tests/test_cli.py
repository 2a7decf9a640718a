from __future__ import annotations

import json

from instanton_lab.cli import main
from instanton_lab.cohomology import CohomologyTable


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
