"""The compression path's records are plain slotted classes that behave as
the dataclasses they replaced did: the same `repr` text, field-wise `==`,
no hash, defaults, keyword construction, and a pickle round trip."""

import copy
import pickle

import pytest

from arcline.arcfit import FittedArc
from arcline.compress import CompressedPolyline, CompressionParams, Primitive
from arcline.document import ResultDocument
from arcline.feasibility import FitIndexArrays, InfeasiblePairList, SegmentVerdicts
from arcline.pipeline import CompressionResult, archimedean_spiral, compress_polyline

SEGMENT = Primitive("segment", 0, 1, (0, 0), (1, 0))

# (class, fields by keyword in declaration order, the dataclass's repr text)
RECORDS = [
    (FittedArc,
     dict(start=(0, 0), end=(2, 0), center=(1.0, -0.5), radius=1.118, orientation="cw",
          sse=0.25, segment_like=True),
     "FittedArc(start=(0, 0), end=(2, 0), center=(1.0, -0.5), radius=1.118, "
     "orientation='cw', sse=0.25, segment_like=True)"),
    (CompressionParams,
     dict(tolerance=0.5, penalty_segment=1, penalty_arc=2, min_arc_points=5, mode="segments"),
     "CompressionParams(tolerance=0.5, penalty_segment=1, penalty_arc=2, min_arc_points=5, "
     "mode='segments')"),
    (Primitive,
     dict(kind="arc", start_idx=3, end_idx=7, start=(3, 0), end=(7, 0), center=(5.0, 1.0),
          radius=2.236, orientation="cw"),
     "Primitive(kind='arc', start_idx=3, end_idx=7, start=(3, 0), end=(7, 0), "
     "center=(5.0, 1.0), radius=2.236, orientation='cw')"),
    (CompressedPolyline,
     dict(primitives=[SEGMENT], total=(2, 0.0), points=[(0, 0), (1, 0)],
          stats={"segment_evaluations": 1}),
     "CompressedPolyline(primitives=[Primitive(kind='segment', start_idx=0, end_idx=1, "
     "start=(0, 0), end=(1, 0), center=None, radius=None, orientation=None)], "
     "total=(2, 0.0), points=[(0, 0), (1, 0)], stats={'segment_evaluations': 1})"),
    (InfeasiblePairList,
     dict(a=[-1, 0, 2, 7], b=[0, 4, 6, 8], n=8),
     "InfeasiblePairList(a=[-1, 0, 2, 7], b=[0, 4, 6, 8], n=8)"),
    (FitIndexArrays, dict(first=[0, 0, 1]), "FitIndexArrays(first=[0, 0, 1])"),
    (SegmentVerdicts,
     dict(first=[0, 0, 0], verdicts=[b"", b"", b"\x01"]),
     "SegmentVerdicts(first=[0, 0, 0], verdicts=[b'', b'', b'\\x01'])"),
    (CompressionResult,
     dict(primitives=[], t_count=0, t_sse=0.0, scale=1024.0,
          grid=CompressedPolyline([], (0, 0.0), [(5, 5)]), source=[(0.0, 0.0)]),
     "CompressionResult(primitives=[], t_count=0, t_sse=0.0, scale=1024.0, "
     "grid=CompressedPolyline(primitives=[], total=(0, 0.0), points=[(5, 5)], stats={}), "
     "source=[(0.0, 0.0)])"),
    (ResultDocument,
     dict(pairs=[("a", "1")], rows=[["x"]]),
     "ResultDocument(pairs=[('a', '1')], rows=[['x']])"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(cls, fields, text):
    assert repr(cls(**fields)) == text
    assert str(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equality_is_field_wise_and_records_are_unhashable(cls, fields, text):
    record = cls(**fields)
    assert record == cls(**fields) and not record != cls(**fields)
    assert record == cls(*fields.values())  # positional, in declaration order
    other = cls(**fields)
    setattr(other, next(iter(fields)), object())
    assert record != other and not record == other
    assert record != tuple(fields.values())  # another class never compares equal
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_unknown_keyword_or_attribute_rejected(cls, fields, text):
    with pytest.raises(TypeError, match="no_such_field"):
        cls(**fields, no_such_field=1)
    with pytest.raises(AttributeError):
        cls(**fields).no_such_field = 1


def test_defaults():
    arc = FittedArc((0, 0), (2, 0), (1.0, 0.0), 1.0, "ccw", 0.0)
    assert arc.segment_like is False
    assert repr(CompressionParams()) == ("CompressionParams(tolerance=1.0, penalty_segment=2, "
                                         "penalty_arc=3, min_arc_points=4, mode='vertices')")
    assert (SEGMENT.center, SEGMENT.radius, SEGMENT.orientation) == (None, None, None)
    one, two = CompressedPolyline([], (0, 0.0), []), CompressedPolyline([], (0, 0.0), [])
    assert one.stats == {} and one.stats is not two.stats
    one, two = ResultDocument(), ResultDocument()
    assert (one.pairs, one.rows) == ([], [])
    assert one.pairs is not two.pairs and one.rows is not two.rows


def test_compression_result_survives_pickle_and_deepcopy():
    result = compress_polyline(archimedean_spiral(1, 2, 0.2), 0.1)
    assert any(p.kind == "arc" for p in result.primitives)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(result, protocol))
        assert copied == result and repr(copied) == repr(result)
    assert copy.deepcopy(result) == result
