"""The library functions the traced run wraps, one layer per module.

Public functions and the public ``SpaceGraph``/``MapRecord`` query methods
are wrapped.  Per-point helpers (``point_distance``, ``point_key``,
``model_distance``, ``SpaceGraph.index_of``, ``walk_value``) are not: they
run hundreds of thousands of times per workload, and a wrapper on each
call would swamp what it measures.

Size-switch counters read ``n`` on the space at call time, so the count of
calls on each side of a library size switch is measured from outside:
``graph_distances`` runs pure-Python BFS at n <= 3000 and scipy above,
``points_within`` brute force at n <= 400 and the grid above,
``check_disjointness`` pairwise piece distances at n <= 500 and the
per-point scan above.
"""

from __future__ import annotations

from tracer import Target

LAYERS = ("spaces", "constructions", "covers", "analysis", "artifacts", "cli")

GRAPH_BFS_MAX_N = 3000
RANGE_BRUTE_MAX_N = 400
DISJOINT_PAIRWISE_MAX_N = 500


def _small_n(counter: str, limit: int, space_of):
    def before(args, kwargs):
        return {counter: int(space_of(args, kwargs).n <= limit)}
    return before


def _count(counter: str, measure):
    def after(result, args, kwargs):
        return {counter: measure(result)}
    return after


def _net_size(result, args, kwargs):
    return {"spaces.net_points": result.n,
            "spaces.net_edges": sum(map(len, result.adj)) // 2}


def _text_bytes(args, kwargs):
    text = kwargs["text"] if "text" in kwargs else args[1]
    return {"artifacts.bytes_written": len(text.encode("utf-8"))}


_pieces_out = _count("covers.pieces_out", lambda r: len(r.pieces))


def _plain(module: str, *names: str) -> list[Target]:
    return [Target(module, n) for n in names]


TARGETS: list[Target] = [
    Target("spaces", "generate_net", after=_net_size),
    Target("spaces", "build_product",
           after=_count("spaces.product_points", lambda r: r.n)),
    *_plain("spaces", "ball", "growth_report", "metric_graph"),
    Target("spaces", "SpaceGraph.graph_distances",
           before=_small_n("spaces.SpaceGraph.graph_distances.small_n_calls",
                           GRAPH_BFS_MAX_N, lambda a, k: a[0])),
    Target("spaces", "SpaceGraph.points_within",
           before=_small_n("spaces.SpaceGraph.points_within.small_n_calls",
                           RANGE_BRUTE_MAX_N, lambda a, k: a[0])),
    *_plain("spaces", "SpaceGraph.points_near_coords",
            "SpaceGraph.nearest_point", "SpaceGraph.multi_source_distances",
            "SpaceGraph.set_distance", "SpaceGraph.set_diameter",
            "SpaceGraph.pairwise_model_distances"),

    Target("constructions", "build_h2_tiling",
           after=_count("constructions.tiles", lambda r: len(r.tiles))),
    *_plain("constructions", "tree_walk", "tiling_to_decomposition",
            "assign_tile", "brady_farb", "MapRecord.remeasure", "hd_cover",
            "hd_cover_pipeline", "build_comb", "nerve_map", "nerve_lipschitz"),

    Target("covers", "check_disjointness",
           before=_small_n("covers.check_disjointness.small_n_calls",
                           DISJOINT_PAIRWISE_MAX_N,
                           lambda a, k: (a[0] if a else k["decomp"]).space),
           after=_count("covers.violations", len)),
    *[Target("covers", n, after=_pieces_out) for n in (
        "mesh_ball_cover", "pullback_cover", "pullback_decomposition",
        "refine_connected", "greedy_decomposition", "kolmogorov_amplify",
        "product_decomposition")],
    *_plain("covers", "r_multiplicity", "iterated_neighborhood"),

    *_plain("analysis", "fit_growth", "subexp_stat", "tail_slope",
            "set_growth", "piece_growth", "distortion_profile",
            "radial_sublinearity", "quasi_convexity_defect", "escalation"),

    Target("artifacts", "write_text", before=_text_bytes),
    *_plain("artifacts", "canonical_json", "sha256_text", "space_manifest",
            "manifest_hash", "space_from_manifest", "points_csv", "edges_csv",
            "cover_to_dict", "cover_from_dict", "map_to_dict", "map_from_dict",
            "verification_report"),

    *_plain("cli", "main", "cmd_space", "cmd_build", "cmd_verify",
            "cmd_analyze", "cmd_report"),
]
