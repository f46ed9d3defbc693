"""Equality, hashing, immutability and repr of the engine's value classes."""

import pickle
from fractions import Fraction

import pytest

from hilbloc.hilb import HilbFixedPoint, Partition
from hilbloc.integrals import (
    ChernExpr,
    ConjectureRow,
    ConstructionReport,
    IntegralRequest,
    Term,
    parse_chern_expr,
)
from hilbloc.symbolic import Weight
from hilbloc.tautological import AmbientClass, UniversalPolynomial
from hilbloc.toric import (
    ChernData,
    EquivariantLineBundle,
    SplitBundle,
    ToricSurfaceModel,
    line_bundle,
    make_surface,
    split_bundle,
)

P2 = make_surface("P2")
O1, O2 = line_bundle(P2, [1]), line_bundle(P2, [2])
SURFACE_FIELDS = (
    "name", "family", "a", "points", "edges", "chi_top", "k_squared",
    "canonical_degrees", "divisor_rank",
)
TERM = Term(Fraction(1), (("V", 2),))

# (class, field names in __init__ order, arguments, index of the field the
# changed copy alters, its value there)
CASES = [
    (Partition, ("parts",), ((2, 1),), 0, (3, 1)),
    (HilbFixedPoint, ("parts",), ((Partition((1,)), Partition(()), Partition(())),),
     0, (Partition(()), Partition((1,)), Partition(()))),
    (Weight, ("a", "b"), (1, -2), 1, 2),
    (ChernData, ("rank", "c1", "c2"), (2, (-2,), 6), 2, 7),
    (ToricSurfaceModel, SURFACE_FIELDS,
     tuple(getattr(P2, name) for name in SURFACE_FIELDS), 5, 4),
    (EquivariantLineBundle, ("surface", "weights"), (P2, O1.weights), 1, O2.weights),
    (SplitBundle, ("surface", "plus", "minus"), (P2, (O1,), ()), 2, (O2,)),
    (Term, ("coefficient", "factors"), (Fraction(1, 2), (("V", 2),)), 0, Fraction(1)),
    (ChernExpr, ("terms",), ((TERM,),), 0, ()),
    (IntegralRequest, ("surface", "k", "bundles", "expr"),
     (P2, 1, {"V": split_bundle(P2, [1, 2])}, parse_chern_expr("c2(V)")),
     3, parse_chern_expr("c1(V)*c1(V)")),
    (ConstructionReport, ("ok", "r", "d", "w", "lower", "upper", "violations"),
     (True, 3, 2, 3, 3, 4, ()), 3, 4),
    (ConjectureRow, ("k", "c2_vstar", "quot", "chi", "equal", "error"),
     (1, 36, 36, 36, True, None), 5, "no split model"),
    (AmbientClass, ("hmax", "umax", "coeffs"), (1, 2, {(0, 0): Fraction(1)}),
     2, {(0, 0): Fraction(2)}),
    (UniversalPolynomial,
     ("shape_id", "k", "rank_v", "rank_lam", "monomials", "coefficients",
      "undetermined"),
     ("count", 1, 2, 0, (("c2(V)",),), (Fraction(1),), ()), 1, 2),
]
MUTABLE = (IntegralRequest, AmbientClass)


@pytest.mark.parametrize("cls, fields, args, index, changed", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class_semantics(cls, fields, args, index, changed):
    x, y = cls(*args), cls(*args)
    assert tuple(getattr(x, name) for name in fields) == args
    assert x == y and not x != y
    other = list(args)
    other[index] = changed
    assert x != cls(*other)
    assert x != args and args != x
    assert pickle.loads(pickle.dumps(x)) == x
    assert repr(x).startswith(f"{cls.__name__}({fields[0]}=")
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(x)
        setattr(y, fields[index], changed)
        assert getattr(y, fields[index]) == changed and x != y
        return
    assert hash(x) == hash(y)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y


def test_line_bundle_equality_ignores_degrees():
    a, b = line_bundle(P2, [1]), line_bundle(P2, [1])
    object.__setattr__(b, "degrees", (5,))
    assert a == b and hash(a) == hash(b)
    assert repr(b).endswith("weights=(Weight(a=0, b=0), Weight(a=1, b=0), "
                            "Weight(a=0, b=1)), degrees=(5,))")
    # a shifted linearization keeps the degrees but is another bundle
    c = a.shifted(Weight(1, 1))
    assert c.degrees == a.degrees and c != a


def test_value_reprs_are_pinned():
    assert repr(ChernData(2, (-2,), 6)) == "ChernData(rank=2, c1=(-2,), c2=6)"
    assert repr(Weight(1, -2)) == "Weight(a=1, b=-2)"
    p = Partition((2, 1))
    assert p.conjugate == (2, 1)  # the cached conjugate stays out of the repr
    assert repr(p) == "Partition(parts=(2, 1))"
    assert repr(ConjectureRow(3, 4556, 4556, 4556, True)) == (
        "ConjectureRow(k=3, c2_vstar=4556, quot=4556, chi=4556, equal=True, error=None)"
    )
    assert repr(O1) == (
        "EquivariantLineBundle(surface=ToricSurfaceModel(name='P2', family='P2', "
        "a=0, points=((Weight(a=1, b=0), Weight(a=0, b=1)), (Weight(a=-1, b=0), "
        "Weight(a=-1, b=1)), (Weight(a=1, b=-1), Weight(a=0, b=-1))), "
        "edges=((0, 1, Weight(a=1, b=0)), (0, 2, Weight(a=0, b=1)), "
        "(1, 2, Weight(a=-1, b=1))), chi_top=3, k_squared=9, "
        "canonical_degrees=(-3,), divisor_rank=1), weights=(Weight(a=0, b=0), "
        "Weight(a=1, b=0), Weight(a=0, b=1)), degrees=(1,))"
    )
