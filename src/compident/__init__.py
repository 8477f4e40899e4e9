"""Identifiable scaling reparametrizations of linear compartment models.

Decide whether a strongly connected compartment graph with input and output
in compartment 1 admits an identifiable scaling reparametrization, construct
the monomial rescaling when it does, and reproduce the census of small
graphs.
"""

from .census import (
    CensusRow,
    ConjectureReport,
    PropertyCheck,
    census_classes,
    census_row,
    enumerate_sc_graphs,
    non_isc_identifiable_classes,
    property_suite,
    test_conjectures,
)
from .charpoly import (
    DimensionReport,
    has_expected_dimension,
    image_dimension,
    io_equation_text,
    jacobian,
    numeric_coefficients,
    symbolic_coefficients,
)
from .errors import (
    CompidentError,
    Disconnected,
    InconsistentSystem,
    InvalidEdge,
    LimitExceeded,
    MalformedInput,
    NoExchange,
    NoReparametrization,
    NotExpectedDimension,
    NotSquare,
    NotStronglyConnected,
    NotUnimodular,
    TooManyEdges,
)
from .graphs import (
    CompartmentGraph,
    Cycle,
    add_exchange_vertex,
    canonical_form,
    collapse_exchange,
    elementary_cycles,
    exchange_vertices,
    has_exchange,
    io_strong_component,
    is_inductively_strongly_connected,
    is_strongly_connected,
    parse_graph,
)
from .reparam import (
    CycleBasis,
    ScalingReparametrization,
    SpanningTree,
    cycle_basis,
    express_in_cycles,
    identifiable_cycle_functions,
    reparametrization_from_json,
    reparametrize,
    rescaled_exponent_matrix,
    scaling_exponents,
    spanning_tree,
    verify_reparametrization,
)

__version__ = "1.0.0"
