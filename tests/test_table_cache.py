"""The crossing table is built once per code value and read from there."""

import io

import pytest

from vknot import basic_preflat, forget, parse_signed, table_to_text
from vknot import coloring
from vknot.cli import execute
from vknot.errors import ValidationError
from vknot.gauss_code import FlatPassage, SignedGaussCode
from vknot.invariant import make_singular

VT = "O1+ O2+ U1+ U2+"


@pytest.fixture
def builds(monkeypatch):
    """Count calls of coloring.crossing_table while the test runs."""
    calls = []
    build = coloring.crossing_table

    def counting(code):
        calls.append(code)
        return build(code)

    monkeypatch.setattr(coloring, "crossing_table", counting)
    return calls


def test_table_is_cached_and_invisible(builds):
    code = parse_signed(VT)
    twin = parse_signed(VT)
    table = code.table
    assert code.table is table
    assert len(builds) == 1
    assert table == coloring.crossing_table(twin)
    assert code == twin and hash(code) == hash(twin)
    assert repr(code) == repr(twin)


def test_every_code_kind_has_a_table():
    code = parse_signed(VT)
    for other in (forget(code), make_singular(code, {1})):
        assert other.table.rows[0].left == code.table.rows[0].left
        assert other.n_crossings() == 2


def test_failed_build_is_not_cached(builds):
    bad = SignedGaussCode(((FlatPassage(1, "L"), FlatPassage(1, "L")),))
    for _ in range(2):
        with pytest.raises(ValidationError, match="crossing 1 needs one"):
            bad.table
    assert len(builds) == 2


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    assert execute(argv, stdout=out, stderr=err) == 0, err.getvalue()


@pytest.mark.parametrize("argv, expected", [
    (["invariant", "O1+ U2+ O3+ U1+ O2+ U3+"], 1),
    (["link-invariant", "O1+ U2+ ; U1+ O2+"], 1),
    (["link-invariant", "--offsets", "2,-1", "O1+ U2+ ; U1+ O2+"], 1),
    (["biquandle", "doodle", VT, "TABLE"], 1),
    (["transform", "--smooth-zero", "O3+ U3+ O1+ O2+ U1+ U2+"], 2),
], ids=["invariant", "link-invariant", "link-invariant-offsets",
        "biquandle-doodle", "transform-smooth-zero"])
def test_cli_builds_one_table_per_code(argv, expected, builds, tmp_path):
    """smooth-zero has two codes, its input and its output."""
    table_path = tmp_path / "inc.tbl"
    table_path.write_text(table_to_text(basic_preflat(5, 0, 1)),
                          encoding="utf-8")
    _run([str(table_path) if a == "TABLE" else a for a in argv])
    assert len(builds) == expected
