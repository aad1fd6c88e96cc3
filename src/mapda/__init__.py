"""Placement delivery array toolkit and coded-caching delivery simulator."""

from .arrays import (
    STAR,
    DomainError,
    Mapda,
    NonPositiveSlotId,
    ParseError,
    RaggedGrid,
    ValidationFailure,
    ValidationReport,
    format_mapda,
    generate_cyclic,
    generate_mn_pda,
    parse_mapda,
    read_mapda,
    replicate,
    validate,
    write_mapda,
)
from .engine import (
    ChannelMatrix,
    DecodeMismatch,
    DegenerateChannel,
    DeliveryReport,
    PacketId,
    PrecodingMatrix,
    SchemeInstance,
    SlotGroup,
    build_instance,
    default_demands,
    make_channel,
    random_library,
    run_delivery,
    run_slot,
    synthesize_precoder,
)
from .linalg import (
    EXACT,
    FLOAT,
    BackendMismatch,
    DimensionMismatch,
    Infeasible,
    Matrix,
    conj_transpose,
    count_ops,
    matmul,
    solve,
)
from .metrics import (
    ConstraintViolation,
    SchemeMetrics,
    SystemPoint,
    asmst_metrics,
    best_m,
    scheme_metrics,
    silence_antennas,
    table_report,
)

__version__ = "0.1.0"
