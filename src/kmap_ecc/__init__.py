"""Karnaugh-map error-correcting codes: placement search, codecs, coverage
analysis and burst-safe transmission orderings."""

from .kcode import (GrayLayout, default_layout, distance, n_class,
                    parity_code, side_squares, weight)
from .placement import (BLESSED_PAIR_SITUATIONS, Collision, ErrorPattern,
                        OccupiedResult, Placement, PlacementError, SClass,
                        SearchStats, X3_DOUBLE_WEIGHT_TABLE,
                        double_weight_count, forbidden_squares, guided_search,
                        is_valid, naive_search, occupied_map,
                        reference_placements, theorem1_overlap,
                        theorem2_overlap, triple_classes)
from .codec import (CodecTables, Codeword, DecodeReport, build_tables,
                    covered_triples, decode, encode, inject, syndrome)
from .coverage import (CENSUS_FAMILIES, CoverageReport, MinParityReport,
                       Theorem4Report, census, min_parity_search,
                       theorem4_check, three_bit_coverage)
from .burst import (BurstCensus, BurstGroup, Ordering, burst_triples,
                    failing_window, search_orderings)
from .render import (CellDiff, MapGrid, diff_grids, grid_from_csv,
                     grid_to_csv, grid_to_json, grid_to_text, render_map)

__version__ = "0.1.0"
