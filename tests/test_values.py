"""The value types share one immutable base: no attribute is written or
deleted after construction, a copy is the value itself, and so a value kept
as a cache key or a cached result never changes."""

import copy
import dataclasses
import inspect

import pytest

import plucker
from plucker import (
    QQ,
    ExactMatrix,
    KSubset,
    LaurentExpression,
    Permutation,
    PluckerSymbol,
    PrimeField,
    SubsetInterval,
    YShape,
    count_points,
    enumerate_grassmannian,
    enumerate_subsets,
    interval,
    maximal_minors,
    principal_certificate,
    w_spec,
)
from plucker.errors import Immutable


def one_of_each():
    """One value of every class that subclasses the base, several of them cached."""
    beta, gamma = KSubset((1, 2), 4), KSubset((3, 4), 4)
    return [
        enumerate_subsets(2, 4)[0],  # cached: every later Gr(2,4) call reads it
        interval(beta, gamma),
        SubsetInterval(beta, gamma),
        Permutation((2, 1, 3)),
        PrimeField(5)(3),
        PrimeField(5),
        QQ,
        ExactMatrix([[1, 2, 3]], QQ),
        maximal_minors(ExactMatrix([[1, 0, 2], [0, 1, 1]], QQ)),
        YShape(beta, gamma),
        PluckerSymbol(beta, -2),
        LaurentExpression.symbol(beta, 2),
        w_spec(beta, gamma),
        enumerate_grassmannian(2, 4, 2)[1],  # cached through its cell
    ]


def attribute_names(value):
    """Its slots and its properties, such as the members read from a family's mask."""
    classes = type(value).__mro__
    properties = [name for cls in classes for name, attr in vars(cls).items() if isinstance(attr, property)]
    return [name for cls in classes for name in getattr(cls, "__slots__", ())] + properties


def test_every_hashed_public_class_subclasses_the_base():
    classes = [obj for obj in (getattr(plucker, name) for name in plucker.__all__) if inspect.isclass(obj)]
    for cls in classes:
        frozen = dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
        if cls.__dict__.get("__hash__") is not None and not frozen:
            assert issubclass(cls, Immutable), f"{cls.__name__} hashes but may be written"
    assert {cls for cls in classes if issubclass(cls, Immutable)} == set(map(type, one_of_each()))


@pytest.mark.parametrize("value", one_of_each(), ids=lambda v: type(v).__name__)
def test_no_write_or_delete_and_a_copy_is_the_value(value):
    before = hash(value)
    message = f"{type(value).__name__} is immutable"
    for name in [*attribute_names(value), "extra"]:
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, 7)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy([value])[0] is value
    assert hash(value) == before


def test_cached_subset_survives_a_delete():
    beta, gamma = KSubset((1, 2), 4), KSubset((3, 4), 4)
    before = count_points(w_spec(beta, gamma), 2)
    with pytest.raises(AttributeError):
        del enumerate_subsets(2, 4)[0].elements
    assert count_points(w_spec(beta, gamma), 2) == before


def test_prime_field_keeps_its_modulus():
    field = PrimeField(5)
    with pytest.raises(AttributeError):
        field.p = 7
    assert field.p == 5 and field != PrimeField(7) and hash(field) == hash(PrimeField(5))


def test_certificate_converts_to_a_dict():
    beta, gamma = KSubset((1, 2, 4), 6), KSubset((3, 5, 6), 6)
    cert = principal_certificate(beta, gamma, 2, KSubset((2, 3, 6), 6))
    doc = dataclasses.asdict(cert)
    assert doc["target"] is cert.target and doc["cofactor"] is cert.cofactor
