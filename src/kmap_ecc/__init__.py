"""Karnaugh-map error-correcting codes: placement search, codecs, coverage
analysis and burst-safe transmission orderings.

Each export, and each submodule, is loaded on first use (PEP 562), so
``import kmap_ecc`` loads no submodule and a CLI command loads only the
modules it runs."""

#: Each export's name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("GrayLayout", "default_layout", "distance", "n_class",
                     "parity_code", "side_squares", "weight"), "kcode"),
    **dict.fromkeys(("BLESSED_PAIR_SITUATIONS", "Collision", "ErrorPattern",
                     "OccupiedResult", "Placement", "PlacementError", "SClass",
                     "SearchStats", "X3_DOUBLE_WEIGHT_TABLE",
                     "double_weight_count", "forbidden_squares", "guided_search",
                     "is_valid", "naive_search", "occupied_map",
                     "reference_placements", "theorem1_overlap",
                     "theorem2_overlap", "triple_classes"), "placement"),
    **dict.fromkeys(("CodecTables", "Codeword", "DecodeReport", "build_tables",
                     "covered_triples", "decode", "encode", "inject"), "codec"),
    **dict.fromkeys(("CENSUS_FAMILIES", "CoverageReport", "MinParityReport",
                     "Theorem4Report", "census", "min_parity_search",
                     "theorem4_check", "three_bit_coverage"), "coverage"),
    **dict.fromkeys(("BurstCensus", "BurstGroup", "Ordering", "burst_triples",
                     "failing_window", "search_orderings"), "burst"),
    **dict.fromkeys(("CellDiff", "MapGrid", "diff_grids", "grid_from_csv",
                     "grid_to_csv", "grid_to_json", "grid_to_text",
                     "render_map"), "render"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    """Import an export's submodule, or a submodule named by the table, and
    keep the value here so later reads skip this hook."""
    if name in _EXPORTS:
        module = _EXPORTS[name]
    elif name in _EXPORTS.values():
        module = name
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return __all__
