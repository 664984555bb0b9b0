"""Arithmetic integer-additive set-indexers of finite simple graphs.

Vertices carry finite sets of non-negative integers; each edge carries
the sumset of its endpoints.  When both assignments are injective the
labeling is a set-indexer, and progression-valued labels sort the
indexers into arithmetic, isoarithmetic, biarithmetic, and strong
classes with exact counting laws, checkable here by brute force.
"""

from .compat import (
    AuditRecord,
    ClassProfile,
    Prediction,
    audit,
    audit_point,
    compat_partition,
    predict_bi_maximal,
    predict_bi_saturated,
    predict_edge_sin,
    predict_iso,
)
from .construct import (
    ConstructionError,
    InfeasibleError,
    NotBipartiteError,
    RatioBoundError,
    SearchBound,
    SizeLimitError,
    construct,
    construct_biarithmetic,
    construct_bipartite_uniform_isoarithmetic,
    construct_componentwise_uniform,
    construct_identical_biarithmetic,
    construct_isoarithmetic,
    construct_strong_biarithmetic,
    search_identical_biarithmetic,
)
from .graphs import (
    Bipartition,
    Graph,
    bipartition,
    complete,
    complete_bipartite,
    components,
    cycle,
    path,
    star,
)
from .io import (
    ParseError,
    export_dot,
    format_histogram,
    parse_graph,
    parse_labeling,
    serialize_audit,
    serialize_graph,
    serialize_labeling,
    serialize_profile,
    serialize_report,
)
from .labeling import (
    Labeling,
    MissingLabelError,
    edge_label,
)
from .sets import (
    IntSet,
    ap_set,
    as_intset,
    check_freiman_converse,
    detect_ap,
    sumset,
)
from .verify import (
    VerificationReport,
    Violation,
    classify,
)

__version__ = "0.1.0"
