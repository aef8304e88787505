"""Cayley graphs on Galois ring additive groups, exact spectra, and claim checks."""

from .errors import (
    ContextMismatchError,
    GrCayleyError,
    IntegrityError,
    ModulusError,
    ParameterError,
    RangeError,
    SizeError,
)
from .ring import (
    ModulusPoly,
    RingContext,
    RingElement,
    RingParams,
    find_basic_irreducible,
    is_unit,
    make_ring,
)
from .cayley import (
    GraphSpec,
    build_graph,
    export_edges,
    family_params,
    spectral_interval_bound,
)
from .spectrum import Spectrum, full_spectrum
from .analysis import (
    ClaimReport,
    bfs_distances,
    check_bhk,
    check_interval,
    check_residue_partition,
    check_wcu_summary,
    connectivity,
    energy_report,
    girth,
    is_ramanujan,
    triangle_count,
    verify_graph,
)

__all__ = [
    "ClaimReport",
    "ContextMismatchError",
    "GrCayleyError",
    "GraphSpec",
    "IntegrityError",
    "ModulusError",
    "ModulusPoly",
    "ParameterError",
    "RangeError",
    "RingContext",
    "RingElement",
    "RingParams",
    "SizeError",
    "Spectrum",
    "bfs_distances",
    "build_graph",
    "check_bhk",
    "check_interval",
    "check_residue_partition",
    "check_wcu_summary",
    "connectivity",
    "energy_report",
    "export_edges",
    "family_params",
    "find_basic_irreducible",
    "full_spectrum",
    "girth",
    "is_ramanujan",
    "is_unit",
    "make_ring",
    "spectral_interval_bound",
    "triangle_count",
    "verify_graph",
]

__version__ = "0.1.0"
