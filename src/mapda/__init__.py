"""Placement delivery array toolkit and coded-caching delivery simulator.

``import mapda`` loads none of the submodules.  ``_EXPORTS`` maps each
exported name to the submodule that defines it; that submodule, and each
of ``arrays``, ``cli``, ``engine``, ``linalg`` and ``metrics`` itself, is
imported the first time ``mapda.X`` or ``from mapda import X`` reads it
(module ``__getattr__``, PEP 562).  An exported name is looked up in its
submodule on every read, never copied here, so it is always the
submodule's current binding.  A command thus loads only the modules it
runs: see ``mapda.cli``.
"""

from importlib import import_module

_SUBMODULES = ("arrays", "cli", "engine", "linalg", "metrics")

_EXPORTS = {
    name: module
    for module, names in (
        (
            "arrays",
            "STAR DomainError Mapda NonPositiveSlotId ParseError RaggedGrid ValidationFailure "
            "ValidationReport format_mapda generate_cyclic generate_mn_pda parse_mapda read_mapda "
            "replicate validate write_mapda",
        ),
        (
            "engine",
            "ChannelMatrix DecodeMismatch DegenerateChannel DeliveryReport PacketId PrecodingMatrix "
            "SchemeInstance SlotGroup build_instance default_demands make_channel random_library "
            "run_delivery run_slot synthesize_precoder",
        ),
        (
            "linalg",
            "EXACT FLOAT BackendMismatch DimensionMismatch Infeasible Matrix conj_transpose "
            "count_ops matmul solve",
        ),
        (
            "metrics",
            "ConstraintViolation SchemeMetrics SystemPoint asmst_metrics best_m scheme_metrics "
            "silence_antennas table_report",
        ),
    )
    for name in names.split()
}

__all__ = [*_SUBMODULES, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
