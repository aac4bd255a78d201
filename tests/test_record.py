"""The immutable value types: every record of the package is a Record.

Each test takes one sample of each of the 19 record types, made by the
library itself, and rebuilds it through the record constructor from its
field values.
"""

from __future__ import annotations

import pytest

from cayley_lift import (cartan, cayley_graph, center, classes, coherent, dense, klv_poset, lifting,
                         parameters, theorem, witness_data)
from cayley_lift.root_system import Record, RootSystem, build_root_system


def _a3():
    return build_root_system("A", 3)


def _parameter():
    return parameters.make_parameter("A", 3, pairs=((1, 2),))


# One sample per record type, by class name.
SAMPLES = {
    "RootSystem": _a3,
    "RootSubsystem": lambda: dense.integral_system(_a3().rho_half, _a3()),
    "Involution": lambda: cartan.involution_from_pairs(_a3(), pairs=((1, 2),)),
    "TorusShape": lambda: classes.cartan_shape(classes.cartan_classes("A", 3)[1]),
    "CartanClass": lambda: classes.cartan_classes("E6")[0],
    "HasseDiagram": lambda: cayley_graph.hasse_diagram("A", 3),
    "FiniteAbelianGroup": lambda: center.cover_center_data("D", 4).center,
    "CenterData": lambda: center.cover_center_data("D", 4),
    "PairSetParameter": _parameter,
    "RDSubset": lambda: klv_poset.rd_subsets("A", 3)[1],
    "ChainCertificate": lambda: coherent.rule_out(parameters.make_parameter("A", 3)).certificate,
    "StabilizerDescription": lambda: coherent.stabilizer(_parameter()),
    "RuleOutReport": lambda: coherent.rule_out(_parameter()),
    "ReplayReport": lambda: witness_data.replay_witness("E6-030"),
    "ParameterPoset": lambda: klv_poset.tower_poset("A", 3),
    "FormalIntegerCombination": lambda: lifting.lift_trivial("A", 3),
    "CharacterCheck": lambda: theorem.verify_main_theorem("A", 3).checks[0],
    "TheoremReport": lambda: theorem.verify_main_theorem("A", 3),
    "WitnessEntry": lambda: witness_data.CATALOG["E6-030"],
}
TYPES = sorted(SAMPLES)


def _sample(name):
    value = SAMPLES[name]()
    assert type(value).__name__ == name
    return value


def _fields(value):
    return [getattr(value, f) for f in type(value)._fields]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_record_type_has_a_sample():
    sampled = {type(_sample(name)) for name in TYPES}  # runs every module that defines one
    assert {cls for cls in Record.__subclasses__()
            if cls.__module__.startswith("cayley_lift.")} == sampled
    assert len(sampled) == 19


def test_fields_are_the_annotations_in_order_and_never_evaluated():
    class Late(Record):
        first: NoSuchName  # noqa: F821 -- postponed, so never looked up
        second: int

    assert Late._fields == ("first", "second")
    assert RootSystem._fields == ("family", "rank", "dim", "doubled_simple",
                                  "doubled_positive", "doubled_rho")


@pytest.mark.parametrize("name", TYPES)
def test_equal_values_are_equal_and_hash_alike(name):
    value = _sample(name)
    cls = type(value)
    by_position = cls(*_fields(value))
    by_keyword = cls(**dict(zip(cls._fields, _fields(value))))
    for copy in (by_position, by_keyword):
        assert copy is not value
        assert copy == value and value == copy and not copy != value
        assert _fields(copy) == _fields(value)
        if all(_hashable(x) for x in _fields(value)):
            assert hash(copy) == hash(value)
            if cls.__hash__ is Record.__hash__:  # RootSystem hashes fewer fields, once
                assert hash(value) == hash(tuple(_fields(value)))
        else:  # a record holding a dict or list fails to hash as that field does
            with pytest.raises(TypeError, match="unhashable"):
                hash(copy)


@pytest.mark.parametrize("name", TYPES)
def test_a_changed_field_breaks_equality(name):
    value = _sample(name)
    cls = type(value)
    for k in range(len(cls._fields)):
        values = _fields(value)
        values[k] = object()
        assert cls(*values) != value


@pytest.mark.parametrize("name", TYPES)
def test_records_of_two_types_are_unequal(name):
    value = _sample(name)
    other = _sample(TYPES[(TYPES.index(name) + 1) % len(TYPES)])
    assert value != other and other != value
    assert value.__eq__(other) is NotImplemented
    assert value.__eq__(tuple(_fields(value))) is NotImplemented

    class Twin(type(value)):  # same fields, same values, another class
        pass

    twin = Twin(*_fields(value))
    assert twin != value and value != twin


def test_cartan_class_and_a_lookalike_record_are_unequal():
    class Lookalike(Record):
        family: str
        rank: int
        signature: tuple

    c = classes.CartanClass("E6", 6, (2, 2, 0))
    assert Lookalike("E6", 6, (2, 2, 0)) != c
    assert len({c, Lookalike("E6", 6, (2, 2, 0))}) == 2


@pytest.mark.parametrize("name", TYPES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = _sample(name)
    before = _fields(value)
    for field in type(value)._fields + ("not_a_field",):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, field, 0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, field)
    assert _fields(value) == before


@pytest.mark.parametrize("name", TYPES)
def test_bad_arguments_are_type_errors(name):
    value = _sample(name)
    cls, values = type(value), _fields(value)
    with pytest.raises(TypeError, match="takes %d field values but %d were given"
                       % (len(values), len(values) + 1)):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected field 'nope'"):
        cls(*values, nope=1)
    with pytest.raises(TypeError, match="two values for field %r" % cls._fields[0]):
        cls(*values, **{cls._fields[0]: values[0]})
    with pytest.raises(TypeError, match="missing fields %r$" % cls._fields[-1]):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="missing fields %s$"
                       % ", ".join(repr(f) for f in cls._fields)):
        cls()


@pytest.mark.parametrize("name", TYPES)
def test_repr_names_each_field(name):
    value = _sample(name)
    cls = type(value)
    assert repr(value) == "%s(%s)" % (name, ", ".join(
        "%s=%r" % (f, x) for f, x in zip(cls._fields, _fields(value))))


def test_repr_is_the_dataclass_format():
    assert repr(classes.CartanClass("E6", 6, (2, 2, 0))) == \
        "CartanClass(family='E6', rank=6, signature=(2, 2, 0))"
    assert repr(center.cover_center_data("D", 4).center) == \
        "FiniteAbelianGroup(invariant_factors=(2, 2, 2))"
    assert repr(_parameter()) == \
        "PairSetParameter(family='A', rank=3, chi=0, blocks=(), pairs=((1, 2),))"


def test_cached_property_caches_on_root_system():
    system = _a3()
    fresh = RootSystem(*_fields(system))
    assert "positive_roots" not in fresh.__dict__ and "index" not in fresh.__dict__
    roots = fresh.positive_roots
    assert fresh.positive_roots is roots and fresh.__dict__["positive_roots"] is roots
    assert fresh.index is fresh.index
    assert hash(fresh) == hash(system) and fresh.__dict__["_hash"] == hash(system)
    # the cached views are not fields: a copy without them is still equal
    assert RootSystem(*_fields(system)) == fresh
    assert fresh.rho_half == system.rho_half
