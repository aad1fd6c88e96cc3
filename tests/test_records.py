"""The package's records: fields are read-only once built, a ``Mapda`` is
equal to another over the same grid and antennas, and a ``SystemPoint``
checks its figures when it is built."""

from fractions import Fraction

import pytest

from mapda.arrays import DomainError, Mapda, generate_cyclic, validate
from mapda.engine import (
    ChannelMatrix,
    build_instance,
    default_demands,
    random_library,
    run_delivery,
    synthesize_precoder,
)
from mapda.metrics import SystemPoint, scheme_metrics
from oracles import vandermonde_channel

GRID = generate_cyclic(4, 2).grid  # K = 4, t = 2, L = 2


def records():
    """(record, one of its fields) for each kind of record a caller holds."""
    m = Mapda(GRID, antennas=2)
    instance = build_instance(m, files=2)
    channel = ChannelMatrix(vandermonde_channel(m.antennas, m.cols))
    group = instance.groups[0]
    library = random_library(2, m.rows, seed=0)
    point = SystemPoint(6, 2, Fraction(1, 3))
    return {
        "Mapda": (m, "grid"),
        "ValidationReport": (validate(GRID, 2), "ok"),
        "SlotGroup": (group, "served_users"),
        "PrecodingMatrix": (synthesize_precoder(group, channel), "residual"),
        "DeliveryReport": (
            run_delivery(instance, channel, default_demands(m.cols, 2), library),
            "ndt_ul",
        ),
        "SystemPoint": (point, "m"),
        "SchemeMetrics": (scheme_metrics(point, 2), "slots"),
    }


@pytest.mark.parametrize("kind", list(records()))
def test_fields_are_read_only(kind):
    record, field = records()[kind]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_mapdas_over_one_grid_are_equal_whether_or_not_indexed():
    a, b = Mapda(GRID, antennas=2), Mapda([list(row) for row in GRID], antennas=2)
    for read in (None, a, b):
        if read is not None:
            assert read.slot_cells(1)
        assert a == b and hash(a) == hash(b)
    assert a != Mapda(GRID, antennas=3)
    assert a != Mapda(generate_cyclic(4, 1).grid, antennas=3)


def test_system_point_checks_its_figures_when_built():
    with pytest.raises(DomainError, match=r"^t = K\*M/N = 5/3 is not an integer$"):
        SystemPoint(5, 2, Fraction(1, 3))
    for m in (0, -2):
        with pytest.raises(DomainError, match=f"^grouping size m must be >= 1, got {m}$"):
            SystemPoint(6, 2, Fraction(1, 3), m)
    assert SystemPoint(6, 2, Fraction(1, 3), 2).t == 2
