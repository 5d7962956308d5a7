"""Value semantics of the record classes: equality, repr and hash.

The results GenusClass, IndexReport, GammaIdentities, RegularizedDet and VerifyCheck
are named tuples; the validated values TaylorSeries, ManifoldDescriptor,
BundleDescriptor, CatalogEntry, ComplexRational, PauliString, OperatorSpec and
VerifyReport are __slots__ classes.  Either way two records built from equal fields
compare equal and print alike, and they hash alike unless a field is unhashable (a
dict), in which case hash() raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from indexcalc.catalog import CatalogEntry
from indexcalc.clifford import ComplexRational, GammaIdentities, PauliString, gamma_identities
from indexcalc.closed_forms import OperatorSpec, RegularizedDet
from indexcalc.exact_algebra import GradedPolynomial, TaylorSeries
from indexcalc.genera import GenusClass, todd_class
from indexcalc.index_engine import (
    BundleDescriptor,
    DescriptorError,
    IndexReport,
    ManifoldDescriptor,
    dolbeault_index,
)
from indexcalc.verification import VerifyCheck, VerifyReport

GENS = (("h", 2),)
ONE = GradedPolynomial.constant(GENS, 2, Fraction(1))
H = GradedPolynomial.generator(GENS, 2, "h")


def cp1(name: str = "cp1") -> ManifoldDescriptor:
    # by keyword, as perfbench/worker.py builds its manifolds
    return ManifoldDescriptor(
        name=name,
        real_dim=2,
        kind="complex",
        generators=GENS,
        evaluation={(1,): 1},
        tangent_class=ONE + 2 * H,
    )


def line_bundle(k: int) -> BundleDescriptor:
    return BundleDescriptor(rank=1, total_chern=ONE + k * H)


# class -> a factory whose equal arguments give records with equal fields
FACTORIES = {
    TaylorSeries: lambda v: TaylorSeries(coefficients=(1, Fraction(1, 2), v)),
    GenusClass: lambda v: GenusClass(kind="Todd", half_dim=v, polynomial=todd_class(v).polynomial),
    ManifoldDescriptor: lambda v: cp1(f"cp1_{v}"),
    BundleDescriptor: line_bundle,
    IndexReport: lambda v: dolbeault_index(cp1(), line_bundle(v)),
    CatalogEntry: lambda v: CatalogEntry(
        manifold=cp1(), bundles={"O(1)": line_bundle(1)}, expected={"dolbeault": v}
    ),
    ComplexRational: lambda v: ComplexRational(real=Fraction(v, 3), imag=Fraction(1)),
    PauliString: lambda v: PauliString(phase=1, x=v, z=3),
    GammaIdentities: gamma_identities,
    # by keyword, as perfbench/worker.py builds its operators
    OperatorSpec: lambda v: OperatorSpec(kind="pbc_curvature_block", beta=1.0, parameter=v / 2),
    RegularizedDet: lambda v: RegularizedDet(closed_form=4.0, oracle_value=4.5, oracle_modes=v),
    VerifyCheck: lambda v: VerifyCheck(name=f"row {v}", expected="1", computed="1", status=True),
}
UNHASHABLE = (ManifoldDescriptor, CatalogEntry)  # evaluation, bundles and expected are dicts

records = pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)


@records
def test_equal_fields_compare_equal(cls):
    a, b, c = FACTORIES[cls](1), FACTORIES[cls](1), FACTORIES[cls](2)
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert repr(a) == repr(b) != repr(c)


@records
def test_hash_follows_the_fields(cls):
    a, b, c = FACTORIES[cls](1), FACTORIES[cls](1), FACTORIES[cls](2)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


def test_repr_names_the_fields():
    assert repr(PauliString(1, 2, 3)) == "PauliString(phase=1, x=2, z=3)"
    assert repr(TaylorSeries((1, 2))) == (
        "TaylorSeries(coefficients=(Fraction(1, 1), Fraction(2, 1)))"
    )
    assert repr(line_bundle(3)) == (
        "BundleDescriptor(rank=1, total_chern=GradedPolynomial(1 + 3·h))"
    )
    assert repr(dolbeault_index(cp1(), line_bundle(1))) == (
        "IndexReport(complex_kind='dolbeault', value=Fraction(2, 1), integer_value=2, "
        "density=GradedPolynomial(1 + 2·h))"
    )
    assert repr(cp1()) == (
        "ManifoldDescriptor(name='cp1', real_dim=2, kind='complex', generators=(('h', 2),), "
        "evaluation={(1,): 1}, tangent_class=GradedPolynomial(1 + 2·h), euler_class=None, "
        "spin=None)"
    )
    assert repr(CatalogEntry(cp1())).startswith("CatalogEntry(manifold=ManifoldDescriptor(")
    assert repr(ComplexRational(1, -2)) == "1-2i"  # its own repr, not the fields'
    assert repr(OperatorSpec("pbc_curvature_block", 1, 0.5)) == (
        "OperatorSpec(kind='pbc_curvature_block', beta=1.0, parameter=0.5)"
    )
    assert repr(RegularizedDet(1.0, 1.5, 10)) == (
        "RegularizedDet(closed_form=1.0, oracle_value=1.5, oracle_modes=10)"
    )
    assert repr(VerifyCheck("a", "1", "1", True)) == (
        "VerifyCheck(name='a', expected='1', computed='1', status=True)"
    )
    assert repr(VerifyReport()) == "VerifyReport(checks=[])"


def test_defaults_and_positional_order():
    assert ComplexRational() == ComplexRational(0, 0) == ComplexRational(real=0, imag=0)
    entry = CatalogEntry(cp1())
    assert (entry.bundles, entry.expected) == ({}, {})
    assert cp1().euler_class is None
    assert ManifoldDescriptor("cp1", 2, "complex", GENS, {(1,): 1}, ONE + 2 * H) == cp1()
    assert BundleDescriptor(1, ONE + H) == line_bundle(1)
    assert OperatorSpec("pbc_laplacian", 2.0) == OperatorSpec(kind="pbc_laplacian", beta=2.0,
                                                              parameter=0.0)
    assert OperatorSpec("pbc_laplacian", 2.0).parameter == 0.0
    assert RegularizedDet(4.0, 4.5, 10).delta == 0.5
    a, b = VerifyReport(), VerifyReport()
    a.add("row", 1, 1, True)
    assert (a.checks, b.checks) == ([VerifyCheck("row", "1", "1", True)], [])
    assert a != b and a == VerifyReport(checks=[VerifyCheck("row", "1", "1", True)])


def test_constructors_still_validate():
    with pytest.raises(ValueError, match="a series needs at least its constant term"):
        TaylorSeries(coefficients=())
    with pytest.raises(DescriptorError, match="kind must be oriented_real or complex, got 'real'"):
        ManifoldDescriptor(
            name="m", real_dim=2, kind="real", generators=GENS, evaluation={}, tangent_class=ONE
        )
    # OperatorSpec checks kind, beta, parameter, then a parameter on a kind that takes none
    nan = float("nan")
    for kind, beta, parameter, message in (
        ("x", -1.0, nan, "unknown operator kind 'x'; expected one of"),
        ("pbc_laplacian", -1.0, nan, "beta must be finite and positive, got -1.0"),
        ("pbc_laplacian", 1.0, nan, "parameter must be finite, got nan"),
        ("pbc_laplacian", 1.0, 0.5, "pbc_laplacian takes no parameter, got parameter=0.5"),
    ):
        with pytest.raises(ValueError, match=message):
            OperatorSpec(kind=kind, beta=beta, parameter=parameter)
    # values are coerced on construction, so equal numbers give equal records
    assert OperatorSpec("pbc_curvature_block", 1, 1) == OperatorSpec("pbc_curvature_block", 1.0, 1)
    assert OperatorSpec("pbc_laplacian", 1).beta.__class__ is float
    assert TaylorSeries((1, 0.5)) == TaylorSeries((Fraction(1), Fraction(1, 2)))
    assert ComplexRational(1, 2).real.__class__ is Fraction


def test_no_equality_across_classes():
    assert PauliString(0, 0, 0) != (0, 0, 0)
    assert ComplexRational(1) != 1
    assert line_bundle(0) != (1, ONE)
    assert OperatorSpec("pbc_laplacian", 1.0) != ("pbc_laplacian", 1.0, 0.0)
