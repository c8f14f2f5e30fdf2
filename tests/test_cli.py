"""CLI behavior: subcommands, exit codes, stream discipline."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import kmap_ecc
import oracles
from kmap_ecc import cli
from kmap_ecc.cli import main
from kmap_ecc.placement import Placement


@pytest.fixture(scope="module")
def placement_files(refs, tmp_path_factory):
    root = tmp_path_factory.mktemp("placements")
    paths = {}
    # the n=10 witness of the unpruned min-parity sweep beside the references
    for name, p in {**refs, "w10": Placement(10, (63, 455, 729))}.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(p.to_json()))
        paths[name] = str(path)
    bad = root / "invalid.json"
    bad.write_text(json.dumps(Placement(7, (3,)).to_json()))
    paths["invalid"] = str(bad)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_search_emits_json_lines(capsys):
    code, out, err = run_cli(capsys, "search", "--d", "3", "--limit", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["class"] == "S_444^444" and rec["double_weight"] == 19
    assert "candidates evaluated" in err


def test_search_class_pin(capsys):
    code, out, _ = run_cli(capsys, "search", "--d", "3",
                           "--class", "S_447^433", "--limit", "1")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["class"] == "S_447^433"


def test_search_class_pin_with_a_distance_past_9(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "12", "--d", "2",
                           "--class", "S_5,5^10", "--limit", "1")
    assert code == 0
    assert json.loads(out)["class"] == "S_5,5^10"


@pytest.mark.parametrize("argv", [("--d", "3", "--class", "garbage"),
                                  ("--d", "3", "--class", "S_447^43"),
                                  ("--class", "S_44^4", "--d", "3"),
                                  # a weight past the map width names no placement
                                  ("--n", "7", "--d", "3", "--class", "S_4,4,45^4,3,3")],
                         ids=lambda a: " ".join(a))
def test_search_bad_class_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "search", *argv, "--limit", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ")


def test_validate_ok_and_invalid(capsys, placement_files):
    code, out, _ = run_cli(capsys, "validate", "--placement", placement_files["s445_433"])
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run_cli(capsys, "validate", "--placement", placement_files["invalid"])
    assert code == 2 and json.loads(out)["valid"] is False


def test_validate_offers_no_csv(capsys, placement_files):
    code, out, err = run_cli(capsys, "validate", "--format", "csv",
                             "--placement", placement_files["s445_433"])
    assert code == 1
    assert out == ""
    assert "usage error" in err
    code, out, _ = run_cli(capsys, "validate", "--format", "text",
                           "--placement", placement_files["s445_433"])
    assert code == 0 and out == "valid\n"


def test_missing_placement_file_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "render", "--placement", "/nonexistent/ref.json")
    assert code == 1
    assert out == ""
    assert "usage error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "search", "--d", "3", "--frobnicate")
    assert code == 1


def test_codec_build_csv(capsys, placement_files):
    code, out, _ = run_cli(capsys, "codec", "build",
                           "--placement", placement_files["s445_433"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "syndrome,pattern"
    assert len(lines) == 1 + 55


def test_codec_encode_decode_round_trip(capsys, placement_files):
    code, out, _ = run_cli(capsys, "codec", "encode",
                           "--placement", placement_files["s447_433"],
                           "--data", "101")
    assert code == 0
    word = json.loads(out)["binary"]
    flipped = list(word)
    flipped[0] = "1" if flipped[0] == "0" else "0"
    code, out, _ = run_cli(capsys, "codec", "decode",
                           "--placement", placement_files["s447_433"],
                           "--word", "".join(flipped))
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "corrected" and rec["pattern"] == "X_1"
    assert rec["binary"] == word


def test_codec_decode_uncorrectable_exit_2(capsys, placement_files):
    code, out, _ = run_cli(capsys, "codec", "encode",
                           "--placement", placement_files["s445_433"],
                           "--data", "000")
    clean = json.loads(out)["binary"]
    # flip three parity bits whose pattern is not covered without triples
    bits = list(clean)
    for k in (3, 4, 5):
        bits[k] = "1"
    code, out, _ = run_cli(capsys, "codec", "decode",
                           "--placement", placement_files["s445_433"],
                           "--word", "".join(bits))
    assert code == 2
    assert json.loads(out)["status"] == "uncorrectable"


@pytest.mark.parametrize("word", ["1_0", "+3ff", "0x"])
def test_codec_decode_word_not_in_binary_or_hex_is_usage_error(capsys, placement_files, word):
    code, out, err = run_cli(capsys, "codec", "decode",
                             "--placement", placement_files["s447_433"], "--word", word)
    assert code == 1
    assert out == "" and "usage error" in err


def test_coverage_report_and_census(capsys, placement_files):
    code, out, _ = run_cli(capsys, "coverage", "report",
                           "--placement", placement_files["s447_433"])
    assert code == 0
    rec = json.loads(out)
    assert rec["total"] == 49 and rec["counts"]["PPP"] == 21
    code, out, _ = run_cli(capsys, "coverage", "census")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,class,realizable,total,XXP,PPP,XPP,XXX"
    assert len(lines) == 1 + 28   # eight families, 28 listed classes
    assert any("S_447^433" in line and ",49," in line for line in lines)


def test_coverage_theorem4(capsys):
    code, out, _ = run_cli(capsys, "coverage", "theorem4")
    assert code == 0
    assert json.loads(out)["impossible"] is True


def test_coverage_minparity_8(capsys):
    code, out, _ = run_cli(capsys, "coverage", "minparity", "--n", "8")
    assert code == 0
    rec = json.loads(out)
    assert rec["infeasible"] is True and rec["pairs_meeting_conditions"] > 0


@pytest.mark.parametrize("n", ["10", "16"])
def test_coverage_theorem4_past_width_9_is_usage_error(capsys, n):
    code, out, err = run_cli(capsys, "coverage", "theorem4", "--n", n)
    assert code == 1
    assert out == ""
    assert "usage error: theorem 4 check supports widths 4..9" in err


@pytest.mark.parametrize("n", ["3", "13"])
def test_coverage_minparity_width_out_of_range_is_usage_error(capsys, n):
    """A width off the map is refused as any --n is; one the sweep does not
    take, by the library."""
    code, out, err = run_cli(capsys, "coverage", "minparity", "--n", n)
    assert code == 1
    assert out == ""
    span = "must be in [4, 16]" if n == "3" else "min-parity search supports widths 4..12"
    assert "usage error" in err and span in err


@pytest.mark.parametrize("n", ["3", "17"])
@pytest.mark.parametrize("argv", [("search", "--d", "3"), ("bench", "--d", "3"),
                                  ("verify-theorems",), ("coverage", "theorem4"),
                                  ("coverage", "census")], ids=" ".join)
def test_width_out_of_range_is_usage_error(capsys, argv, n):
    code, out, err = run_cli(capsys, *argv, "--n", n)
    assert code == 1
    assert out == ""
    assert "usage error" in err and "[4, 16]" in err


@pytest.mark.parametrize("argv", [("search", "--d", "0"), ("search", "--d", "5"),
                                  ("search", "--n", "8", "--d", "5", "--limit", "2"),
                                  ("search", "--naive", "--d", "0"),
                                  ("bench", "--d", "0"), ("bench", "--d", "5"),
                                  ("search", "--d", "3", "--limit", "-1"),
                                  ("bench", "--d", "3", "--k", "-1"),
                                  ("verify-theorems", "--n", "8", "--samples", "0"),
                                  ("verify-theorems", "--samples", "-5")],
                         ids=" ".join)
def test_data_count_or_limit_out_of_range_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage error" in err


def test_naive_search_accepts_any_data_count(capsys):
    code, out, _ = run_cli(capsys, "search", "--naive", "--n", "4", "--d", "5")
    assert code == 0 and out == ""


@pytest.mark.parametrize("n,d", [("7", "5"), ("9", "3"), ("16", "2")])
def test_naive_search_over_budget_is_usage_error(capsys, n, d):
    code, out, err = run_cli(capsys, "search", "--naive", "--n", n, "--d", d,
                             "--limit", "1")
    assert code == 1
    assert out == ""
    assert "usage error" in err and "budget" in err


@pytest.mark.parametrize("n,d", [("12", "4"), ("8", "4"), ("16", "2")])
def test_bench_over_naive_budget_is_usage_error(capsys, n, d):
    code, out, err = run_cli(capsys, "bench", "--n", n, "--d", d, "--k", "1")
    assert code == 1
    assert out == ""
    assert "usage error" in err and "budget" in err


def test_naive_search_budget_admits_width_7_up_to_4_bits(capsys):
    code, out, err = run_cli(capsys, "search", "--naive", "--d", "4", "--limit", "1")
    assert code == 0
    assert json.loads(out)["data"] == [15, 51, 85, 106]
    assert "candidates evaluated: 16996" in err


def test_search_at_width_16(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "16", "--d", "3", "--limit", "1")
    assert code == 0
    assert json.loads(out)["data"] == [15, 51, 85]


@pytest.mark.parametrize("data", [(15, 51), (15, 51, 85, 102)], ids=["d2", "d4"])
@pytest.mark.parametrize("argv", [("coverage", "report"), ("burst", "search"),
                                  ("burst", "check", "--ordering", "X1,P1,P2")],
                         ids=lambda a: " ".join(a[:2]))
def test_three_bit_commands_refuse_other_data_counts(capsys, tmp_path, argv, data):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(Placement(7, data).to_json()))
    code, out, err = run_cli(capsys, *argv, "--placement", str(path))
    assert code == 1
    assert out == ""
    assert "usage error: three-bit coverage is defined for 3-data-bit placements" in err


def test_burst_check_and_search(capsys, placement_files):
    code, out, _ = run_cli(capsys, "burst", "check",
                           "--placement", placement_files["s447_433"],
                           "--ordering", "X1,P7,P3,P6,X3,P2,P4,P1,P5,X2")
    assert code == 0 and json.loads(out)["burst_safe"] is True
    code, out, _ = run_cli(capsys, "burst", "check",
                           "--placement", placement_files["s447_433"],
                           "--ordering", "X1,X2,X3,P1,P2,P3,P4,P5,P6,P7")
    assert code == 2
    rec = json.loads(out)
    assert rec["failing_window"] == 0 and rec["failing_pattern"] == "X_1X_2X_3"


def test_render_formats(capsys, placement_files):
    code, out, _ = run_cli(capsys, "render",
                           "--placement", placement_files["s445_433"])
    assert code == 0 and out.startswith("rows s7 s5 s3 s1")
    code, out, _ = run_cli(capsys, "render", "--format", "csv",
                           "--placement", placement_files["s445_433"])
    assert code == 0 and out.splitlines()[0] == "row,col,label"


#: The render options of each mode the map pins cover.
RENDER_MODES = {"plain": (), "triples": ("--triples",), "forbidden": ("--forbidden-for", "1,2")}

#: sha256 of ``render`` stdout in text, csv and json, by placement and mode:
#: every byte the map layer prints, whichever table the map is read from.
RENDER_DIGESTS = {
    ('s44_4', 'plain'): (
        '95f634a8913b67224033b9cf02205c3998b07acf63a8b7708277ca291a3e7fdf',
        'ab96d4fe360684c2c8391fb165dd5ec338c9be790083e2dfc29e57ec369abc15',
        'e4ef307f1fe32f0c215ce3886aa4ce498f9c6a9ca36eddcd09e938365a1ee87e',
    ),
    ('s44_4', 'triples'): (
        '9b9ae7c3d739a7594b3e4f5278b641e4c4993b1c44483b2e04e622be99d0cf5b',
        '5670e090a01f4f5f5c24114ae6f36c4ce3145ff5a960b661ce911b61792b4068',
        'cc5f1bc97d10c0d345a57f4be26b77091fef904d17ee15f9af8f2554dbcfff4b',
    ),
    ('s44_4', 'forbidden'): (
        'b73f17692c166235fb121ca4a8d6b83822db531af85ac233f39b9cce10050c7e',
        'a1ddd4b36f4d0b7635396930411c3d0d3315dea05b4d0b4e4ff9050125a66427',
        'c89c558e6eb3f11f570dc454c2ff9f5d6170ec6d0311bf621267a1202dc229c9',
    ),
    ('s445_433', 'plain'): (
        '80c2d0360f03eb9187c48016f8ff3818b3329e26b02f869118f1a1859cc6997b',
        'c33a36bb91c0b76fdb517d49d8e5a5acf5378c7cf426a11e6d91bce29381575e',
        '75dfe9bcc2439b9d74e9cf04e5fd8c24bc0077c5eae65f635e9cebc7491b79c2',
    ),
    ('s445_433', 'triples'): (
        '4999c3593beb74107c7fd7041ed4485947cd24ad10ae42aaf0cf2acf94a5a235',
        '10ddae4eaa70d960c099def11c187d72ebc4aa43f7837e3a6d5af6a7df6b35a2',
        'bb503c476fafb47c0dc6e5711c3856194aec93ee3c2418b1f7b1a70abf224f6b',
    ),
    ('s445_433', 'forbidden'): (
        'bcc6aec87b3448493e77f67726a9fe474b19ba7252357db9a6c88a20954518cd',
        'e1973ad6071cdf06fe6ee6efdaf63805ef4a08d37b1e6b495acd84b5a16631b1',
        'e2d38a95977e9113618a65be560afc90b7029461bf8206f3c98bccdd52d2decc',
    ),
    ('s447_433', 'plain'): (
        'a0f4a71b290cebef8341b9d5c9d11e98a9574a34ddb1eed2dadefdd9b6f83dad',
        '644acd9504fbec3d776ed34fe59ca044a08542f74fdd2a866e43d4ff8d899b77',
        'b1dad29b91074fad4a212a17b552d4ec2e17d89461b837eb345dac5328a01d8b',
    ),
    ('s447_433', 'triples'): (
        '42b2ad5738d3f47460ef8ce159b5d0de7fbb85c54ad6afbb58e9367a4afa8d9d',
        '96ef049dcce0dd226df684b78edc368ce02d4902bbd0ad4881f391a5ebf459e4',
        '2524401116e51672d50941e00a95c55881a0387cb25df681f5fde4de4008add3',
    ),
    ('s447_433', 'forbidden'): (
        'd6a2e7b44f67df2373cd8af71ecb5d639c2f7618f9eb5afb36293fec4339bdbf',
        '01116fcdd2749b293d2d001f26e321d6b7fe4265d46de9623af96f4bb3edab49',
        '3f01b4a09e7abbae2c1593b6874e57d472d5973949a9c4d589e0087c6c45203a',
    ),
    ('w10', 'plain'): (
        '2aa4449458894485f26f1432450a6cc6ddd90e4afd7a32cc2e8d317cd3ae9879',
        '6b401fb0bae9f15c967d1d8f350d425e87d4597f84ef6e412dffe67f25410fae',
        '23d0cc92e9639b4f6cfdb0a1cd499a3fe6f63185962ee42a6cd9e57e41958619',
    ),
    ('w10', 'triples'): (
        '20e4085f7314521b3c32d95ee9aa87d5bce5a9b73f41ed1470ca584bc8ce3131',
        'fa29d5cffe594e191cb3d6c678daf984d995fadf3fd087ec0f06edf4ae85c8b6',
        '4939888bb47e24ea6763df498c9662ca8760ef85247e90f3502a0d2f92998964',
    ),
    ('w10', 'forbidden'): (
        'f6a2932b3a1f15bdc894275731959778f39806d43532bb5004a2e46705696e57',
        'd709f9f42c9969f45b36e64bb89206552ba4723646a2ba52579025a7dc447e77',
        '737142a6cfc18a15f7959d66c0093b122552623273131713f02d9769a1061254',
    ),
}


@pytest.mark.parametrize("name, mode", RENDER_DIGESTS, ids="-".join)
def test_render_stdout_is_pinned(capsys, placement_files, name, mode):
    digests = []
    for fmt in ("text", "csv", "json"):
        code, out, err = run_cli(capsys, "render", "--placement", placement_files[name],
                                 "--format", fmt, *RENDER_MODES[mode])
        assert (code, err) == (0, "")
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == RENDER_DIGESTS[name, mode]


@pytest.mark.parametrize("pair", ["1,1", "1,9", "0,2", "3,4"])
def test_render_forbidden_for_bad_indices_is_usage_error(capsys, placement_files, pair):
    code, out, err = run_cli(capsys, "render", "--placement", placement_files["s445_433"],
                             "--forbidden-for", pair)
    assert code == 1
    assert out == ""
    assert "usage error: forbidden_for wants two distinct data indices in [1, 3]" in err


def test_render_layout_width_mismatch_is_usage_error(capsys, placement_files):
    wide = json.dumps({"n": 8, "row_vars": [8, 7, 5, 3], "col_vars": [6, 4, 2, 1]})
    code, out, err = run_cli(capsys, "render", "--placement", placement_files["s447_433"],
                             "--layout", wide)
    assert code == 1
    assert out == ""
    assert "usage error: layout has width 8 but the placement has width 7" in err
    same = json.dumps({"n": 7, "row_vars": [7, 5, 3, 1], "col_vars": [6, 4, 2]})
    code, out, _ = run_cli(capsys, "render", "--placement", placement_files["s447_433"],
                           "--layout", same)
    assert code == 0 and out.startswith("rows s7 s5 s3 s1")


@pytest.mark.parametrize("command, placement, extra", [
    ("validate", {"n": 7, "data": "127"}, ()),
    ("validate", {"n": 7, "data": [106.9, 86, 127]}, ()),
    ("validate", {"n": 7, "data": [True, 86, 127]}, ()),
    ("validate", {"n": 7.8, "data": [106, 86, 127]}, ()),
    ("render", {"n": 7, "data": [106, 86, 127]},
     ("--layout", json.dumps({"n": 7, "row_vars": [7.0, 5, 3, 1], "col_vars": [6, 4, 2]}))),
], ids=["data-string", "data-float", "data-bool", "n-float", "layout-float"])
def test_non_integer_json_is_usage_error(capsys, tmp_path, command, placement, extra):
    """Placement and layout JSON hold integers only, never read as ints."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(placement))
    code, out, err = run_cli(capsys, command, "--placement", str(path), *extra)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("data", [127, "127"], ids=repr)
def test_placement_data_that_is_no_sequence_is_named(capsys, tmp_path, data):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 7, "data": data}))
    code, out, err = run_cli(capsys, "validate", "--placement", str(path))
    assert (code, out) == (1, "")
    assert f"placement data must be a sequence of K-codes, got {data!r}" in err


@pytest.mark.parametrize("flag", [
    ("--forbidden-for", "1,2"),
    ("--layout", json.dumps({"n": 8, "row_vars": [8, 7, 5, 3], "col_vars": [6, 4, 2, 1]})),
], ids=["forbidden-for", "layout"])
def test_render_bad_flag_on_invalid_placement_is_usage_error(capsys, placement_files, flag):
    """The flags are refused before the placement is found invalid."""
    code, out, err = run_cli(capsys, "render", "--placement", placement_files["invalid"], *flag)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("layout", [
    {"n": 7, "row_vars": [], "col_vars": [7, 6, 5, 4, 3, 2, 1]},
    {"n": 7, "row_vars": [7, 6, 5, 4, 3, 2, 1], "col_vars": []},
], ids=["no-rows", "no-cols"])
def test_layout_with_an_empty_axis_is_usage_error(capsys, placement_files, tmp_path, layout):
    """render and diff both refuse a layout with an empty axis, so render
    never writes a grid CSV that diff cannot read back."""
    text = json.dumps(layout)
    code, out, err = run_cli(capsys, "render", "--placement", placement_files["s447_433"],
                             "--format", "csv", "--layout", text)
    assert (code, out) == (1, "")
    assert "usage error: bad layout: row_vars and col_vars must each hold a parity variable" in err
    code, out, _ = run_cli(capsys, "render", "--placement", placement_files["s447_433"],
                           "--format", "csv")
    grid = tmp_path / "grid.csv"
    grid.write_text(out)
    code, out, err = run_cli(capsys, "diff", "--a", str(grid), "--b", str(grid),
                             "--layout", text)
    assert (code, out) == (1, "")
    assert "usage error: bad layout: row_vars and col_vars must each hold a parity variable" in err


@pytest.mark.parametrize("text,reason", [
    ("not a grid\n", "must start with header"),
    ("row,col,label\n0000000,000,X_1\n", "does not fit the layout"),
    ("row,col,label\n000,0000\n", "not enough values"),
    ("row,col,label\n0201,000,X_1\n", "does not fit the layout"),
    ("row,col,label\n0000,0a1,X_1\n", "does not fit the layout"),
    ("row,col,label\n0000,+01,X_1\n", "does not fit the layout"),
    ("row,col,label\n0_01,001,X_1\n", "does not fit the layout"),
], ids=["header", "outside", "short-row", "not-binary", "not-binary-col", "signed", "underscored"])
def test_diff_bad_grid_is_usage_error(capsys, placement_files, tmp_path, text, reason):
    code, out, _ = run_cli(capsys, "render", "--format", "csv",
                           "--placement", placement_files["s445_433"])
    good = tmp_path / "good.csv"
    good.write_text(out)
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    for a, b in ((bad, good), (good, bad)):
        code, out, err = run_cli(capsys, "diff", "--a", str(a), "--b", str(b))
        assert code == 1
        assert out == ""
        assert f"usage error: bad grid {bad}" in err and reason in err


def test_diff_identical_and_different(capsys, placement_files, tmp_path):
    code, out, _ = run_cli(capsys, "render", "--format", "csv",
                           "--placement", placement_files["s445_433"])
    a = tmp_path / "a.csv"
    a.write_text(out)
    code, _, _ = run_cli(capsys, "diff", "--a", str(a), "--b", str(a))
    assert code == 0
    code, out, _ = run_cli(capsys, "render", "--format", "csv",
                           "--placement", placement_files["s447_433"])
    b = tmp_path / "b.csv"
    b.write_text(out)
    code, out, _ = run_cli(capsys, "diff", "--a", str(a), "--b", str(b))
    assert code == 2
    assert "differences" in out


def test_verify_theorems(capsys):
    code, out, _ = run_cli(capsys, "verify-theorems")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)


def test_verify_theorems_at_8_ignores_samples_and_seed(capsys):
    outs = set()
    for flags in ((), ("--samples", "2000", "--seed", "42"), ("--samples", "100")):
        code, out, _ = run_cli(capsys, "verify-theorems", "--n", "8", *flags)
        assert code == 0
        outs.add(out)
    (out,) = outs
    lines = out.strip().splitlines()
    assert lines[0].startswith("SKIP")
    assert sum(1 for line in lines if line.startswith("PASS")) == 3


def _verdicts(capsys, n):
    """Theorems 1-3's verdicts from ``verify-theorems --n n``: one pair per
    XOR offset."""
    main(["verify-theorems", "--n", str(n)])
    lines = capsys.readouterr().out.splitlines()
    return [line.startswith("PASS") for line in lines
            if line[6:14] in ("theorem1", "theorem2", "theorem3")]


def _pair_verdicts(n):
    """Theorems 1-3's verdicts over every pair that meets each hypothesis."""
    pairs1, pairs2, pairs3 = oracles.theorem_pairs(n)
    return [all(cli.theorem1_overlap(a, b, n) == 6 for a, b in pairs1),
            all(cli.theorem2_overlap(a, b, n) == 6 for a, b in pairs2),
            all((a ^ b ^ a).bit_count() >= 2 and (a ^ b ^ b).bit_count() >= 2
                for a, b in pairs3)]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_per_offset_verdicts_match_the_pair_oracle(capsys, monkeypatch, n):
    """Each verdict equals the pair oracle's, and both fail when one XOR
    offset's overlap is patched to 5."""
    assert _verdicts(capsys, n) == _pair_verdicts(n) == [True, True, True]
    for name, weight in (("theorem1_overlap", 4), ("theorem2_overlap", 3)):
        real = getattr(cli, name)
        bad = ((1 << weight) - 1) << (n - weight)
        monkeypatch.setattr(cli, name, lambda a, b, n: 5 if a ^ b == bad else real(a, b, n))
        want = [name != "theorem1_overlap", name != "theorem2_overlap", True]
        assert _verdicts(capsys, n) == _pair_verdicts(n) == want
        monkeypatch.setattr(cli, name, real)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_verify_theorems_checks_each_xor_offset_once(capsys, monkeypatch, n):
    calls = {}
    for name in ("theorem1_overlap", "theorem2_overlap"):
        def counted(a, b, n, real=getattr(cli, name), seen=calls.setdefault(name, [])):
            seen.append(a ^ b)
            return real(a, b, n)
        monkeypatch.setattr(cli, name, counted)
    code, out, _ = run_cli(capsys, "verify-theorems", "--n", str(n))
    assert code == 0 and out.count("PASS") == 3
    for name, weight in (("theorem1_overlap", 4), ("theorem2_overlap", 3)):
        assert len(calls[name]) == len(set(calls[name])) == math.comb(n, weight)


def test_verify_theorems_failure_is_domain_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "theorem1_overlap", lambda a, b, n: 5)
    code, out, _ = run_cli(capsys, "verify-theorems")
    assert code == 2
    assert "FAIL  theorem1" in out


def test_bench_counters(capsys):
    code, out, err = run_cli(capsys, "bench", "--d", "3")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    by_name = {r["search"]: r for r in recs}
    assert by_name["guided"]["candidates_evaluated"] < by_name["naive"]["candidates_evaluated"]
    assert "guided:" in err and "naive:" in err  # timings on stderr only


def test_bench_k0_is_empty(capsys):
    code, out, err = run_cli(capsys, "bench", "--d", "3", "--k", "0")
    assert code == 1 and out == ""
    assert "usage error" in err and "at least 1" in err



# --- parser pins ---

#: Digests and messages below were taken with Python 3.11's argparse, from
#: the hand-built parser tree that the command table replaced; other
#: versions word some of them differently.
PINNED_ARGPARSE = sys.version_info[:2] == (3, 11)

#: sha256 of each parser's ``--help`` stdout at 80 columns.
HELP_DIGESTS = {
    '': 'd747944cf6fb7026dc909c4b5b3776cbbd75d96984f6bd94aba91399e262be4d',
    'search': '72b14f024a901861e254e49c3c9735c0f3c9e1773b5432cbb9b065140fc34917',
    'validate': '2463c04bbc81424b1a08d8bbe0a9f454326c8c79b2e55270a967b287e83d9a5e',
    'codec': '0f7d1029bf0bcfe32e7e44281ce16e311256530e6e3963960f505f192f2db4e0',
    'codec build': 'beaad88b56e55180d7b5dd69e690092cb2871e6aa0c4f26e76860cef0319538b',
    'codec encode': '9cd4efafc4cf62f1097e32aaa0b69bc5444cda85e1fe4bbcff79e1463b72d080',
    'codec decode': 'c2a3ed4d3a243fae2af26bb511598492e487ffe0948a2a99f28aa11233bf402f',
    'coverage': 'c0be9d6383a70789ab25133c60810f8d1ddf1ff58c8b0a284d2dfcaa87367201',
    'coverage report': 'bad897b080af6869f189a1b317105a7780e546a17c910a4f48cf99b7d44af38c',
    'coverage census': '0344f0be02720b764ef2d35c2f3e89f28df66a4e5ed19b737d0a661074f81da9',
    'coverage theorem4': '98881d326db67ddb4f4daafd5e97dd3d3d0f9ae44cb9ca9bf442894d44e5198e',
    'coverage minparity': '8037b3b7537fc93463963ba28c8b8ef063a788c4cd1e9609490ac05b1de2f55f',
    'burst': '33624a18c185bd6e50b0205bf05422965c454c363ba6bee7739fd52c95036909',
    'burst search': '635f8b5eb504f888a61497a0f209e5790a920e7a9480fcb40d0dfa3190afd85f',
    'burst check': 'db570311224e633633c1fca5a2aced2088662885d37a26492ffa25cb3fee3ac9',
    'render': '3b5d48a7abe212f6922689391fd6ccf900e0130c8bf455d6f0ae29fd7fbada9f',
    'diff': 'ce7e9a8681865da5e0aa12017cfff75f05005897767104258bee30c11272ed94',
    'verify-theorems': '1595a2744bd5a32598afccd155e249f361e96e3f2f8d231e955a440f61d6bceb',
    'bench': '16ca4f1df1c600bc5081a0267e76d093580c8f8725ba698d7e80ef530a589e77',
}

#: Each help request and the parser whose help it prints: help asked for
#: before a further command name describes the level it was asked at.
HELP_CASES = [(path.split() + ["--help"], path) for path in HELP_DIGESTS] + [
    (["codec", "--help", "decode"], "codec"),
    (["--help", "search"], ""),
    (["search", "--d", "3", "-h"], "search"),
]

#: A usage error's argv and its stderr line (exit 1).
USAGE_ERRORS = [
    ([],
     'usage error: the following arguments are required: command\n'),
    (['bogus'],
     "usage error: argument command: invalid choice: 'bogus' (choose from 'search', 'validate', 'codec', 'coverage', 'burst', 'render', 'diff', 'verify-theorems', 'bench')\n"),
    (['codec'],
     'usage error: the following arguments are required: codec_command\n'),
    (['coverage'],
     'usage error: the following arguments are required: coverage_command\n'),
    (['burst'],
     'usage error: the following arguments are required: burst_command\n'),
    (['codec', 'bogus'],
     "usage error: argument codec_command: invalid choice: 'bogus' (choose from 'build', 'encode', 'decode')\n"),
    (['--threads=1'],
     'usage error: the following arguments are required: command\n'),
    (['--thr', '1'],
     'usage error: the following arguments are required: command\n'),
    (['--threads', 'x', 'search'],
     "usage error: argument --threads: invalid int value: 'x'\n"),
    (['search', '--d', '3', '--n', '3'],
     'usage error: argument --n: must be in [4, 16], got 3\n'),
    (['validate', '--placement', 'p.json', '--format', 'csv'],
     "usage error: argument --format: invalid choice: 'csv' (choose from 'json', 'text')\n"),
    (['codec', 'build', '--placement', 'p.json', '--format', 'xml'],
     "usage error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'text')\n"),
    (['codec', 'encode', '--placement', 'p.json'],
     'usage error: the following arguments are required: --data\n'),
    (['codec', 'decode', '--placement', 'p.json'],
     'usage error: the following arguments are required: --word\n'),
    (['coverage', 'report', '--placement', 'p.json', '--mode', 'loose'],
     "usage error: argument --mode: invalid choice: 'loose' (choose from 'strict', 'assignable')\n"),
    (['coverage', 'census', '--n', '17'],
     'usage error: argument --n: must be in [4, 16], got 17\n'),
    (['coverage', 'theorem4', '--n', '3'],
     'usage error: argument --n: must be in [4, 16], got 3\n'),
    (['coverage', 'minparity', '--n', 'x'],
     "usage error: argument --n: invalid integer value: 'x'\n"),
    (['burst', 'search'],
     'usage error: the following arguments are required: --placement\n'),
    (['burst', 'check', '--placement', 'p.json'],
     'usage error: the following arguments are required: --ordering\n'),
    (['render', '--placement', 'p.json', '--format', 'svg'],
     "usage error: argument --format: invalid choice: 'svg' (choose from 'json', 'csv', 'text')\n"),
    (['diff', '--a', 'a.csv', '--b', 'b.csv', '--n', '3'],
     'usage error: argument --n: must be in [4, 16], got 3\n'),
    (['verify-theorems', '--samples', '0'],
     'usage error: argument --samples: must be at least 1, got 0\n'),
    (['bench', '--d', '5'],
     'usage error: argument --d: must be in [1, 4], got 5\n'),
    (['search', '--d', '3', '--bogus'],
     'usage error: unrecognized arguments: --bogus\n'),
    (['--threads', '1', '2', 'search'],
     "usage error: argument command: invalid choice: '2' (choose from 'search', 'validate', 'codec', 'coverage', 'burst', 'render', 'diff', 'verify-theorems', 'bench')\n"),
    (['--threads=1', 'codec', 'bogus', 'decode'],
     "usage error: argument codec_command: invalid choice: 'bogus' (choose from 'build', 'encode', 'decode')\n"),
]


@pytest.mark.parametrize("argv, path", HELP_CASES, ids=[" ".join(a) for a, _ in HELP_CASES])
def test_help_is_pinned(argv, path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out = capsys.readouterr()
    assert stop.value.code == 0 and out.err == "" and out.out.startswith("usage: kmap-ecc")
    if PINNED_ARGPARSE:
        assert hashlib.sha256(out.out.encode()).hexdigest() == HELP_DIGESTS[path]


@pytest.mark.parametrize("argv, err", USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS])
def test_usage_errors_are_pinned(argv, err, capsys):
    code, out, got = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert got == err if PINNED_ARGPARSE else got.startswith("usage error: ")


#: Runs whose command path the narrow parser must read as the whole tree does.
PATH_CASES = [
    ["search", "--d", "3", "--class", "S_447^433", "--limit", "1"],
    ["--threads", "2", "coverage", "census", "--format", "json"],
    ["--thr", "1", "burst", "search", "--placement", "search"],
    ["--threads=1", "codec", "decode", "--placement", "decode", "--word", "build"],
    ["codec", "build", "--placement", "p.json", "--triples"],
    ["verify-theorems", "--n", "8", "--samples", "20000", "--seed", "0"],
    ["render", "--placement", "render", "--format", "csv"],
    ["bench", "--d", "3", "--k", "1"],
]


@pytest.mark.parametrize("argv", PATH_CASES, ids=" ".join)
def test_command_path_parses_as_the_whole_tree(argv):
    narrow = cli.build_parser(cli._command_path(argv)).parse_args(argv)
    assert vars(narrow) == vars(cli.build_parser().parse_args(argv))


def test_a_run_builds_only_its_commands_parsers(capsys, monkeypatch):
    """A run builds the top parser and those on its command path; help and
    a usage error build the whole tree of 19."""
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    for argv, parsers in ((["verify-theorems", "--n", "4"], 2),
                          (["coverage", "theorem4", "--n", "4"], 3),
                          (["coverage", "census", "--n", "3"], 3 + 19)):
        built.clear()
        run_cli(capsys, *argv)
        assert len(built) == parsers, argv
    built.clear()
    with pytest.raises(SystemExit):
        main(["coverage", "--help"])
    assert len(built) == 19


_START_UP = """
import sys
sys.path.insert(0, {src!r})
import kmap_ecc.cli
print(sorted({{"dataclasses", "inspect", "random", "typing"}} & set(sys.modules)))
"""


def test_cli_import_loads_no_dataclasses_inspect_typing_or_random():
    """Each of the four adds to every command's start, and no command loads
    ``random`` (below).  The interpreter runs without ``site``, which may
    preload ``typing``."""
    src = str(Path(kmap_ecc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", _START_UP.format(src=src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


_THEOREMS_AT_8 = """
import sys
sys.path.insert(0, {src!r})
from kmap_ecc.cli import main
code = main(["verify-theorems", "--n", "8"])
print(code, "random" in sys.modules)
"""


def test_verify_theorems_past_7_loads_no_random():
    """Theorems 1-3 are checked per XOR offset at every width, so nothing
    is sampled; the interpreter runs without ``site``, as above."""
    src = str(Path(kmap_ecc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", _THEOREMS_AT_8.format(src=src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


_LAZY_START = """
import json, sys
sys.path.insert(0, {src!r})
def loaded():
    return sorted(m for m in sys.modules if m.startswith("kmap_ecc.") or m == "csv")
import kmap_ecc
root = loaded()
import kmap_ecc.cli
cli = loaded()
code = kmap_ecc.cli.main(["codec", "decode", "--placement", {placement!r},
                          "--word", "1011101010", "--triples"])
decode = loaded()
lazy = kmap_ecc.render.render_map is sys.modules["kmap_ecc.render"].render_map
from kmap_ecc import burst, codec, coverage, parallel, placement, render
print(json.dumps([root, cli, code, decode, lazy, parallel.__name__]))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """``import kmap_ecc`` loads no submodule, importing the CLI loads
    neither the codec, coverage, burst, render nor process-pool modules nor
    ``csv``, and a ``codec decode`` run adds the codec alone.  A submodule
    is still an attribute of the package, and perfbench's ``from kmap_ecc
    import ...`` still binds every module."""
    placement = tmp_path / "s447_433.json"
    placement.write_text(json.dumps({"n": 7, "data": [106, 86, 127]}))
    src = str(Path(kmap_ecc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c",
                           _LAZY_START.format(src=src, placement=str(placement))],
                          capture_output=True, text=True, timeout=60, check=True)
    root, cli_, code, decode, lazy, parallel = json.loads(proc.stdout.splitlines()[-1])
    assert root == []
    assert not {"kmap_ecc.codec", "kmap_ecc.coverage", "kmap_ecc.burst", "kmap_ecc.render",
                "kmap_ecc.parallel", "csv"} & set(cli_)
    assert code == 2        # the README decode lands on an uncorrectable square
    assert set(decode) - set(cli_) == {"kmap_ecc.codec"}
    assert lazy and parallel == "kmap_ecc.parallel"
