"""The public surface of the library's records: Ambient, ChowClass and the
result records Classification, ScResult, VolumeVerdict and VolumeReport.

These pin what callers see (equality, hashing, repr, read-only attributes,
field order, JSON forms), independently of how the records are built.
"""

import re
from fractions import Fraction

import pytest

from schubmat import Ambient, ChowClass, classify, sc, sc_uniform, sigma, uniform
from schubmat.errors import AmbientMismatch, DoesNotFit, InvalidDimensions, NotAnInteger, WrongShape
from schubmat.matroids import Classification
from schubmat.orbit import ScResult
from schubmat.polytope import VolumeReport, ehrhart_report, report_to_json_dict, verify_volume_relation

CLASSIFICATION_FIELDS = [
    "components", "kappa", "loops", "coloops", "is_paving", "is_sparse_paving",
    "nonbasis_count", "is_minimal", "is_uniform",
]


def field_names(record) -> list[str]:
    """The `name=` labels of a record's repr, in order."""
    return re.findall(r"(\w+)=", repr(record))


def test_ambient_equality_and_hash():
    g = Ambient(2, 5)
    assert g == Ambient(2, 5) and g == Ambient(r=2, n=5)
    assert g != Ambient(2, 6) and g != Ambient(3, 5)
    assert g != (2, 5) and g.__eq__((2, 5)) is NotImplemented
    assert hash(g) == hash((2, 5)) == hash(Ambient(2, 5))
    assert len({g, Ambient(2, 5), Ambient(3, 5)}) == 2
    assert g.rect == (2, 3)


def test_ambient_repr_and_validation():
    """(r, n) goes through the gate every (r, n) entry point shares, so an
    ambient, a class read from JSON and a matroid raise one error for one
    fault; AmbientMismatch means only that two ambients disagree."""
    assert repr(Ambient(2, 5)) == "Ambient(r=2, n=5)"
    for bad in (lambda: Ambient(3, 2), lambda: uniform(3, 2),
                lambda: ChowClass.from_json_dict({"r": 3, "n": 2, "terms": []})):
        with pytest.raises(InvalidDimensions, match=r"need 0 <= r <= n, got r=3, n=2"):
            bad()
    with pytest.raises(InvalidDimensions):
        Ambient(-1, 2)
    with pytest.raises(NotAnInteger):
        Ambient(True, 5)
    with pytest.raises(NotAnInteger):
        Ambient(2, 5.0)
    with pytest.raises(AmbientMismatch, match=re.escape("Ambient(r=2, n=4) vs Ambient(r=2, n=5)")):
        sc_uniform(2, 4) + sc_uniform(2, 5)


@pytest.mark.parametrize("name", ["r", "n", "other"])
def test_ambient_is_read_only(name):
    g = Ambient(2, 5)
    with pytest.raises(AttributeError):
        setattr(g, name, 3)
    if name != "other":
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert (g.r, g.n) == (2, 5)


def test_chow_class_equality_and_hash():
    g = Ambient(2, 5)
    a = ChowClass(g, {(2,): 3, (1, 1): 1})
    assert a == ChowClass(g, {(1, 1): 1, (2,): 3}) == sc_uniform(2, 5)
    assert not a != sc_uniform(2, 5)
    assert a != ChowClass(g, {(2,): 3})
    assert a != ChowClass(Ambient(2, 6), {(2,): 3, (1, 1): 1})
    assert a != a.terms and a.__eq__(a.terms) is NotImplemented
    with pytest.raises(TypeError):
        hash(a)


def test_chow_class_zero_class_and_validation():
    g = Ambient(2, 5)
    zero = ChowClass(g)
    assert zero.terms == {} and zero.is_zero() and zero.text() == "0"
    assert zero == ChowClass(g, {}) == ChowClass(ambient=g, terms={(1,): 0})
    # a fresh term map each time: the default is not shared
    assert ChowClass(g).terms is not ChowClass(g).terms
    assert ChowClass(g, {(1, 0, 0): 2}).terms == {(1,): 2}
    with pytest.raises(DoesNotFit):
        ChowClass(g, {(4,): 1})
    with pytest.raises(NotAnInteger):
        ChowClass(g, {(1,): True})
    with pytest.raises(ValueError, match="not weakly decreasing"):
        ChowClass(g, {(1, 2): 1})
    a = ChowClass(g, {(1,): 2})
    assert a.coefficient((1, 0)) == 2 and a.coefficient((2,)) == 0
    for lam in [(1.0,), (True,), (1, 0.0)]:
        with pytest.raises(NotAnInteger):
            a.coefficient(lam)


def test_chow_class_sums_keys_of_one_partition():
    """Keys that normalize to one partition are summed, as from_json_dict
    sums repeated terms, and a sum of 0 leaves no term."""
    g = Ambient(2, 5)
    assert ChowClass(g, {(1,): 1, (1, 0): 2}).terms == {(1,): 3}
    assert ChowClass(g, {(1,): 1, (1, 0): -1}) == ChowClass(g)
    assert ChowClass(g, {(2,): 1, (1,): 1, (1, 0, 0): -1}).terms == {(2,): 1}
    data = {"r": 2, "n": 5, "terms": [{"partition": [1], "coeff": "1"},
                                      {"partition": [1, 0], "coeff": "2"}]}
    assert ChowClass.from_json_dict(data) == ChowClass(g, {(1,): 1, (1, 0): 2})


@pytest.mark.parametrize("ambient", [(2, 5), None, "G(2,5)"], ids=["pair", "none", "string"])
def test_chow_class_rejects_an_ambient_that_is_not_an_ambient(ambient):
    with pytest.raises(WrongShape, match="ambient must be an Ambient, not "):
        ChowClass(ambient, {})
    with pytest.raises(WrongShape):
        sigma(ambient, (1,))


@pytest.mark.parametrize("other", [1, None, {(1,): 1}], ids=["int", "none", "dict"])
def test_chow_class_sum_with_a_non_class_is_a_type_error(other):
    """__add__ returns NotImplemented for anything but a ChowClass, as
    __eq__ does, so Python raises TypeError."""
    c = sc_uniform(2, 4)
    with pytest.raises(TypeError):
        c + other
    with pytest.raises(TypeError):
        other + c


def test_chow_class_repr():
    assert repr(sc_uniform(2, 5)) == (
        "ChowClass(ambient=Ambient(r=2, n=5), terms={(1, 1): 1, (2,): 3})"
    )
    assert repr(ChowClass(Ambient(0, 0))) == "ChowClass(ambient=Ambient(r=0, n=0), terms={})"


@pytest.mark.parametrize("name", ["ambient", "terms", "other"])
def test_chow_class_is_read_only(name):
    c = sigma(Ambient(2, 4), (1,), 2)
    with pytest.raises(AttributeError):
        setattr(c, name, {})
    if name != "other":
        with pytest.raises(AttributeError):
            delattr(c, name)
    assert c.terms == {(1,): 2} and c.ambient == Ambient(2, 4)


def test_classification_field_order():
    c = classify(uniform(2, 4))
    assert field_names(c) == CLASSIFICATION_FIELDS
    built = Classification(*range(len(CLASSIFICATION_FIELDS)))
    assert [getattr(built, name) for name in CLASSIFICATION_FIELDS] == list(
        range(len(CLASSIFICATION_FIELDS))
    )
    assert Classification(**{name: 0 for name in CLASSIFICATION_FIELDS}).kappa == 0


def test_sc_result_fields_and_json():
    result = sc(uniform(2, 4))
    assert (result.methods, result.k_used, result.beta_value) == (
        ("SparsePaving-Theorem1",), 0, 2,
    )
    assert result.chow_class == sc_uniform(2, 4)
    assert result.to_json_dict() == {
        "r": 2, "n": 4, "terms": [{"partition": [1], "coeff": "2"}],
        "method": ["SparsePaving-Theorem1"], "kappa": 1, "k": 0, "beta": "2",
    }
    built = ScResult(result.matroid_summary, result.chow_class, ("m",), None, 5)
    assert (built.matroid_summary, built.chow_class, built.methods, built.k_used,
            built.beta_value) == (result.matroid_summary, result.chow_class, ("m",), None, 5)
    assert built.to_json_dict()["method"] == ["m"]
    assert built.to_json_dict()["k"] is None and built.to_json_dict()["beta"] == "5"


def test_volume_verdict_ok_and_checks():
    verdict = verify_volume_relation(uniform(2, 4))
    assert verdict.ok is True
    assert (verdict.degree, verdict.volume) == (4, 4)
    assert verdict.checks == (("degree=volume", 4, 4, True), ("d_hc=beta", 2, 2, True))
    assert verdict.sc_result == sc(uniform(2, 4))
    assert verdict.volume_report == ehrhart_report(uniform(2, 4))
    point = verify_volume_relation(uniform(0, 2))
    assert point.ok and [name for name, *_ in point.checks] == ["degree=volume"]


def test_volume_report_ehrhart_is_fractions():
    report = ehrhart_report(uniform(2, 4))
    assert isinstance(report, VolumeReport)
    assert (report.dim, report.counts, report.normalized_volume) == (3, (1, 6, 19, 44), 4)
    assert report.ehrhart == (Fraction(1), Fraction(7, 3), Fraction(2), Fraction(2, 3))
    assert all(type(c) is Fraction for c in report.ehrhart)
    assert report_to_json_dict(report) == {
        "dim": 3, "counts": ["1", "6", "19", "44"],
        "ehrhart": ["1", "7/3", "2", "2/3"], "volume": "4",
    }
