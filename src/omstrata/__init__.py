"""omstrata: exact rational geometry, rank-3 oriented matroids, and
machine-checked degeneration certificates for planar configurations."""

from ._version import __version__
from .errors import (
    CoincidentPoints,
    DegeneratePoints,
    DegenerateSource,
    DegenerateStep,
    DegenerateTarget,
    GroundSetMismatch,
    Identical,
    NonPositiveHeight,
    NotCollinear,
    NotSpanning,
    OmstrataError,
    Parallel,
    RankDeficient,
    RationalParseError,
    SchemaError,
    SeedRejected,
)
from .geometry import (
    Line2,
    PlanePoint,
    Projectivity,
    Rational,
    Vector3,
    affine_from_correspondence,
    collinear,
    cross_ratio,
    embed_affine,
    line_intersect,
    line_through,
    perspective_normalize,
    sign_det3,
)
from .labels import Label, PERSISTENT, label_key, sort_labels
from .om import (
    Chirotope,
    LabeledArrangement,
    Matroid,
    OrientedMatroid,
    SignVector,
    chirotope_of,
    covectors_of,
    om_equal,
    om_of,
    strong_map,
    underlying_matroid,
    weak_map,
)
from .grassmann import (
    Subspace,
    VectorFamily,
    family_om,
    projection_arrangement,
    same_stratum,
    subspace_om,
)
from .construction import (
    CertificateChecks,
    CertificateReport,
    ConfigurationFamily,
    LevelRecord,
    Seed,
    SeedValidation,
    build,
    certificate,
    cross_ratio_ledger,
    default_seed,
    delta_arrangement,
    limit_arrangement,
    scale_degeneration,
    validate_seed,
)
from .figures import emit_figure

__all__ = [name for name in dir() if not name.startswith("_")]
