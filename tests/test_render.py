"""Grid rendering, the shipped transcription fixtures, and diffing."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kmap_ecc.kcode import GrayLayout, default_layout
from kmap_ecc.placement import Placement, PlacementError
from kmap_ecc.render import (MapGrid, diff_grids, grid_from_csv, grid_to_csv,
                             grid_to_json, grid_to_text, render_map)

FIXTURES = [("map_s445_433.csv", "s445_433", {}),
            ("map_s447_433_triples.csv", "s447_433", {"include_triples": True}),
            ("map_s44_4_forbidden.csv", "s44_4", {"forbidden_for": (1, 2)})]


def load_fixture(fixture_dir, name):
    return grid_from_csv((fixture_dir / name).read_text(), default_layout(7))


def test_reference_map_matches_fixture(refs, fixture_dir):
    grid = render_map(refs["s445_433"])
    fixture = load_fixture(fixture_dir, "map_s445_433.csv")
    assert diff_grids(grid, fixture) == ()


def test_triple_map_matches_fixture(refs, fixture_dir):
    grid = render_map(refs["s447_433"], include_triples=True)
    fixture = load_fixture(fixture_dir, "map_s447_433_triples.csv")
    assert diff_grids(grid, fixture) == ()
    triples = [v for v in grid.cells.values() if v.count("_") == 3]
    assert len(triples) == 49


def test_forbidden_marks_match_fixture(refs, fixture_dir):
    grid = render_map(refs["s44_4"], forbidden_for=(1, 2))
    fixture = load_fixture(fixture_dir, "map_s44_4_forbidden.csv")
    assert diff_grids(grid, fixture) == ()
    assert sum(1 for v in grid.cells.values() if v == "f") == 7


def test_zero_square_labeled_n(refs):
    grid = render_map(refs["s445_433"])
    assert grid.label_at(*grid.layout.to_grid(0)) == "N"


def test_empty_placement_renders_parity_map():
    grid = render_map(Placement(7, ()))
    labels = set(grid.cells.values())
    assert "N" in labels
    assert len(grid.cells) == 29


def test_render_rejects_invalid_placement():
    with pytest.raises(PlacementError):
        render_map(Placement(7, (3,)))


def test_grid_adjacent_labels_differ_by_one_bit(refs):
    grid = render_map(refs["s447_433"], include_triples=True)
    lay = grid.layout
    for (r, c), _ in grid.cells.items():
        code = lay.from_grid(r, c)
        right = lay.from_grid(r, (c + 1) % lay.col_count)
        assert bin(code ^ right).count("1") == 1


def test_diff_reports_changed_cells(refs):
    a = render_map(refs["s445_433"])
    b = render_map(refs["s447_433"])
    diffs = diff_grids(a, b)
    assert diffs
    assert all(d.a != d.b for d in diffs)
    assert diff_grids(a, a) == ()


def test_diff_rejects_dimension_mismatch(refs):
    from kmap_ecc.kcode import GrayLayout
    a = render_map(refs["s445_433"])
    sideways = GrayLayout(7, (6, 4, 2), (7, 5, 3, 1))
    b = render_map(refs["s445_433"], layout=sideways)
    with pytest.raises(ValueError):
        diff_grids(a, b)


def test_csv_round_trip(refs):
    grid = render_map(refs["s445_433"])
    again = grid_from_csv(grid_to_csv(grid), grid.layout)
    assert diff_grids(grid, again) == ()


def test_json_cells_keyed_by_code(refs):
    p = refs["s445_433"]
    obj = grid_to_json(render_map(p))
    assert obj["cells"][str(p.data[0])] == "X_1"
    assert obj["cells"]["0"] == "N"


def test_text_render_contains_headers(refs):
    text = grid_to_text(render_map(refs["s445_433"]))
    assert text.startswith("rows s7 s5 s3 s1 | cols s6 s4 s2")
    assert "X_1X_2" in text


def _outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


def test_survey_maps_match_cell_oracle(survey_placements):
    for p in survey_placements:
        grid = render_map(p, include_triples=True)
        want = oracles.map_cells(p, grid.layout, True)
        assert list(grid.cells.items()) == list(want.items()), p
        text = grid_to_csv(grid)
        assert text == oracles.grid_csv(grid.layout, want), p
        back = grid_from_csv(text, grid.layout)
        assert list(back.cells.items()) == list(oracles.parse_grid_csv(text, grid.layout).items())
        assert diff_grids(grid, back) == ()


@pytest.mark.parametrize("name,ref,kwargs", FIXTURES, ids=[f[1] for f in FIXTURES])
def test_fixture_csv_bytes(refs, fixture_dir, name, ref, kwargs):
    with open(fixture_dir / name, newline="") as f:
        text = f.read()
    grid = render_map(refs[ref], **kwargs)
    assert grid_to_csv(grid) == text
    assert (list(grid_from_csv(text, grid.layout).cells.items())
            == list(oracles.parse_grid_csv(text, grid.layout).items()))


def test_grid_csv_labels_the_layout_never_writes_are_refused():
    # a w-bit axis writes all 2^w binary strings, so any other spelling is refused
    lay = default_layout(7)
    for cell in ("0000,+01", "0_01,001", " 011, 11", "0000,-01", "0100,0010"):
        with pytest.raises(ValueError, match="does not fit the layout"):
            grid_from_csv(f"row,col,label\n{cell},X_1\n", lay)


@st.composite
def layouts(draw, n=None):
    n = draw(st.integers(4, 12)) if n is None else n
    vars_ = draw(st.permutations(range(1, n + 1)))
    cut = draw(st.integers(1, n - 1))
    return GrayLayout(n, tuple(vars_[:cut]), tuple(vars_[cut:]))


LABELS = st.text(st.sampled_from("XP_0123456789Nf ,\"'\r\n"), max_size=8)


@settings(max_examples=150, deadline=None)
@given(layouts(), st.data())
def test_layout_tables_match_oracle(lay, data):
    n = lay.n
    for code in data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40)):
        pos = lay.to_grid(code)
        assert pos == oracles.grid_position(lay, code)
        assert lay.from_grid(*pos) == code
    positions = st.tuples(st.integers(0, lay.row_count - 1), st.integers(0, lay.col_count - 1))
    cells = data.draw(st.dictionaries(positions, LABELS, max_size=30))
    grid = MapGrid(lay, cells)
    text = grid_to_csv(grid)
    assert text == oracles.grid_csv(lay, cells)
    back = _outcome(lambda: grid_from_csv(text, lay).cells)
    assert back == _outcome(oracles.parse_grid_csv, text, lay)
    assert back == cells
    assert diff_grids(grid, MapGrid(lay, back)) == ()


@st.composite
def placements(draw):
    """Up to five codes at width 4..12, valid or not, or, half the time,
    those of the drawn codes that keep the placement valid."""
    n = draw(st.integers(4, 12))
    codes = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))
    if not draw(st.booleans()):
        return Placement(n, tuple(codes[:5]))
    data = []
    for x in codes:
        if len(data) < 5 and not oracles.collides(data + [x], n):
            data.append(x)
    return Placement(n, tuple(data))


@settings(max_examples=200, deadline=None)
@given(placements(), st.booleans(), st.data())
def test_render_matches_cell_oracle_at_any_width(p, triples, data):
    lay = data.draw(layouts(p.n))
    mapping, _clashes = oracles.occupied_map(p)
    if mapping is None:
        with pytest.raises(PlacementError):
            render_map(p, include_triples=triples, layout=lay)
        return
    grid = render_map(p, include_triples=triples, layout=lay)
    want = oracles.map_cells(p, lay, triples)
    assert list(grid.cells.items()) == list(want.items())
    assert grid_to_csv(grid) == oracles.grid_csv(lay, want)
