"""coarselab: discretized hyperbolic/tree geometry with a cover algebra.

Windows onto model spaces (half-plane and half-space, the 3-regular
tree, the integer line, combs, l1-products), the algebra of coloured
covers over them, explicit walks/tilings/embeddings, and measurement
tools for growth, distortion, radial sublinearity and quasi-convexity.
"""

from .analysis import (DistortionProfile, SublinearityReport,
                       distortion_profile, escalation, fit_growth,
                       piece_growth, quasi_convexity_defect,
                       radial_sublinearity, set_growth, subexp_stat,
                       tail_slope)
from .constructions import (GeodesicComb, MapRecord, NerveComplex, Tiling,
                            assign_tile, brady_farb, build_comb,
                            build_h2_tiling, comb_level_bound,
                            comb_level_points, hd_cover_pipeline,
                            nerve_lipschitz, nerve_map,
                            tiling_to_decomposition, tree_walk, walk_value)
from .covers import (ColoredDecomposition, Cover, NeighborhoodChain,
                     check_disjointness, greedy_decomposition,
                     iterated_neighborhood, kolmogorov_amplify,
                     mesh_ball_cover, product_decomposition, pullback_cover,
                     pullback_decomposition, r_multiplicity, refine_connected)
from .spaces import (CombNode, GrowthReport, HalfPlane, HalfSpace, ModelPoint,
                     SpaceGraph, TreeAddress, TuplePoint, ZPoint, ball,
                     build_product, generate_net, growth_report,
                     metric_graph)

__version__ = "0.1.0"
