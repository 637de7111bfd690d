"""walkspectra: graph spectral radii through walk-count series.

Exact walk counting and the walk-preference order, two independent
spectral-radius solvers, certified evaluation of the walk series attached to
complete-multipartite embeddings, and enumeration-backed verifiers for the
extremal statements built on them.
"""

from .errors import (
    FormatError,
    GraphError,
    HypothesisNotMet,
    SeriesError,
    SpectralError,
)
from .extremal import (
    EnumerationFamily,
    VerificationReport,
    enumerate_embeddings,
    enumerate_m_edge,
    enumerate_m_edge_order,
    sample_embedding,
    spex,
    verify_corollary_2inf,
    verify_corollary_tnrk,
    verify_lemma_2degree,
    verify_multi_set,
    verify_one_set,
)
from .graphio import (
    format_edge_list,
    from_graph6,
    parse_edge_list,
    read_graph6,
    to_graph6,
    write_graph6,
)
from .graphs import (
    CanonicalForm,
    Graph,
    MultipartiteEmbedding,
    canonical_form,
    complement,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty,
    join,
    path,
    star,
    turan,
)
from .intervals import Ival
from .series import (
    EntrySeries,
    SeriesEvaluation,
    entry_series,
    f_eval,
    f_resolvent,
    inner_series,
    solve_rho_series,
    tail_bound,
)
from .spectral import SpectralResult, perron_normalized, rho_dense, rho_power
from .walks import (
    ComparisonCertificate,
    Ordering,
    WalkProfile,
    ex_filter,
    ex_infinity,
    walk_compare,
    walk_profile,
    walk_totals,
)

__version__ = "0.1.0"
