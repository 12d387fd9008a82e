"""Random oriented cubic graphs, the cusped hyperbolic surfaces they
glue, and certified Cheeger-constant upper bounds."""

from .cheeger import (
    Certificate,
    CuspCut,
    Division,
    EmptyI1,
    build_cusp_cut,
    certificate,
    cheeger_upper_bound,
    in_f_star,
    sum_degrees_i1_bound_check,
)
from .cusps import (
    CuspPartition,
    has_large_cusps,
    has_large_cusps_proxy,
    partition_cusps,
    small_triangle_area,
    surface_area,
)
from .experiments import (
    SummaryStats,
    TrialRecord,
    h_fraction_below,
    lht_growth_fit,
    run_grid,
    run_trial,
)
from .farey import (
    DevelopedTriangle,
    FareyTriangle,
    classify_segments,
    count_intersecting,
    enumerate_level,
    horoball_footprint,
    intersects_strip,
    m_bound,
    mediant,
    n_bound,
    vertex_row,
)
from .ribbon import (
    FaceDecomposition,
    RibbonGraph,
    derive_seed,
    faces,
    from_matching,
    sample,
    sample_connected,
)

__version__ = "0.1.0"
