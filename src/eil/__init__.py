"""eil: exact depth bounds for powers of edge ideals of graphs.

Bit-mask graphs, exact monomial-ideal arithmetic, depth by a socle test,
Takayama's degree complexes or a Hochster sweep, and a harness checking every
supported inequality and identity over exhaustive small-graph catalogs.
"""

from .catalog import all_graphs, canonical_key, graph_classes
from .checks import (
    CheckOutcome,
    DepthComputer,
    check_colon_intersection,
    check_even_connection_depth,
    check_first_power,
    check_generator_order_decomposition,
    check_packing_deletion_bound,
    check_sharp_examples,
    check_square_colon_depth,
    check_square_colon_formula,
    check_square_depth_bounds,
    check_symbolic_square,
    check_triangle_neighborhood_packing,
)
from .depth import (
    GF2,
    QQ,
    ComplexView,
    FieldChoice,
    depth_ideal,
)
from .graphs import (
    Graph,
    Graph6Error,
    StarPackingWitness,
    complete_graph,
    cycle_graph,
    delete_vertices,
    emit_graph6,
    empty_graph,
    even_connection_graph,
    graph_from_edges,
    is_wk3_free,
    parse_edge_list,
    parse_graph6,
    path_graph,
    random_graph,
    star_packing_number,
    triangles,
    whiskered_triangle,
)
from .ideals import (
    MonomialIdeal,
    PolarizationResult,
    edge_ideal,
    format_monomial,
    ideal_digest,
    minimalize,
    parse_monomial,
    polarize,
    symbolic_square_edge_ideal,
)
from .suite import (
    CHECK_IDS,
    SUITE_ALIASES,
    VerificationReport,
    hunt_counterexamples,
    resolve_checks,
    run_suite,
)

__version__ = "0.1.0"
