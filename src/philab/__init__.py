"""philab: a finite laboratory for partitioned-formula types.

Structures are finite truth matrices of a partitioned formula phi(x; y);
the package computes type spaces, independence dimension, two-level
existential types, good configurations, and isolating extensions with
machine-checkable certificates, backed by independent brute-force oracles.
"""

from .delta import (
    ALL,
    DeltaFamily,
    DeltaType,
    delta_equal,
    delta_eval,
    delta_type,
    finitely_satisfiable_in,
)
from .errors import (
    ArityMismatchError,
    InvariantError,
    LiteralClashError,
    PhilabError,
    PreconditionError,
    ResourceLimitError,
    StructureParseError,
    UnknownElementError,
    UnknownParameterError,
)
from .generators import (
    EqRelSpec,
    eqrel_target_element,
    eqrel_target_type,
    eqrel_triple_of,
    gen_eqrel,
    gen_linear_order,
    gen_random_bounded,
    gen_shattered,
)
from .goodconfig import (
    ConfigCheck,
    GoodConfiguration,
    build_maximal,
    config_certificate,
    extend_type,
    find_extension_pair,
    is_good_configuration,
)
from .isolation import (
    DefiningFormula,
    IsolatedExtensionResult,
    IsolationCertificate,
    QHarnessReport,
    QType,
    check_q_realizer,
    embed_trace,
    find_isolating_subtype,
    gamma_certificate,
    isolated_extension,
    phi_defining_formula,
    psi_disjunction,
    q_harness,
    q_type,
)
from .oracle import (
    oracle_all_good_configs,
    oracle_min_isolating,
    oracle_vc,
)
from .structure import (
    EMPTY_TYPE,
    BipartiteStructure,
    PhiType,
    parse_structure,
    serialize_structure,
)
from .vc import IndependenceReport, independence_dimension, is_phi_independent

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
