"""Tests for attribute domains and fresh values."""

import copy
import multiprocessing
import pickle

import pytest

from repro.core.rcdp import decide_rcdp
from repro.errors import DomainError
from repro.queries.atoms import rel
from repro.queries.cq import cq
from repro.queries.terms import var
from repro.relational.domain import (BOOLEAN, FiniteDomain, FreshValue,
                                     FreshValueSupply, INFINITE,
                                     InfiniteDomain, is_fresh)
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema


class TestInfiniteDomain:
    def test_contains_arbitrary_hashables(self):
        assert "abc" in INFINITE
        assert 42 in INFINITE
        assert (1, "a") in INFINITE

    def test_contains_fresh_values(self):
        assert FreshValue("x") in INFINITE

    def test_is_infinite(self):
        assert INFINITE.is_infinite

    def test_equality(self):
        assert INFINITE == InfiniteDomain()
        assert hash(INFINITE) == hash(InfiniteDomain())

    def test_validate_passes(self):
        INFINITE.validate("anything")


class TestFiniteDomain:
    def test_membership(self):
        dom = FiniteDomain({"a", "b", "c"})
        assert "a" in dom
        assert "z" not in dom

    def test_not_infinite(self):
        assert not FiniteDomain({"a", "b"}).is_infinite

    def test_requires_two_elements(self):
        with pytest.raises(DomainError):
            FiniteDomain({"only"})

    def test_rejects_fresh_values(self):
        with pytest.raises(DomainError):
            FiniteDomain({FreshValue("x"), "a"})

    def test_validate_raises_outside(self):
        dom = FiniteDomain({0, 1})
        with pytest.raises(DomainError):
            dom.validate(2, context="test")

    def test_iteration_is_deterministic(self):
        dom = FiniteDomain({"b", "a", "c"})
        assert list(dom) == list(dom)

    def test_len(self):
        assert len(FiniteDomain(range(5))) == 5

    def test_boolean_domain(self):
        assert 0 in BOOLEAN
        assert 1 in BOOLEAN
        assert 2 not in BOOLEAN
        assert len(BOOLEAN) == 2


class TestFreshValues:
    def test_identity_by_label(self):
        assert FreshValue("a") == FreshValue("a")
        assert FreshValue("a") != FreshValue("b")

    def test_never_equals_user_constants(self):
        assert FreshValue("a") != "a"

    def test_is_fresh(self):
        assert is_fresh(FreshValue("x"))
        assert not is_fresh("x")

    def test_supply_produces_distinct_values(self):
        supply = FreshValueSupply()
        values = supply.take_many(10)
        assert len(set(values)) == 10

    def test_distinct_supplies_distinct_prefixes(self):
        a = FreshValueSupply(prefix="a").take()
        b = FreshValueSupply(prefix="b").take()
        assert a != b

    def test_hint_embedded_in_label(self):
        value = FreshValueSupply().take(hint="myvar")
        assert "myvar" in value.label

    def test_hashable(self):
        assert len({FreshValue("a"), FreshValue("a"), FreshValue("b")}) == 2

    def test_one_object_per_label(self):
        assert FreshValue("a") is FreshValue("a")
        assert hash(FreshValue("a")) == hash(FreshValue("a"))

    def test_immutable(self):
        value = FreshValue("a")
        with pytest.raises(AttributeError):
            value.label = "b"
        with pytest.raises(AttributeError):
            del value.label
        assert value.label == "a"

    def test_pickle_and_copies_reintern(self):
        value = FreshValue("round-trip")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) is value
        row = ("c1", value)
        assert copy.deepcopy(row)[1] is value
        assert copy.copy(value) is value

    @pytest.mark.usefixtures("no_head_start")
    def test_witness_from_a_spawn_worker_is_the_parents_value(
            self, monkeypatch):
        """A spawned worker unpickles its payload in a fresh interpreter
        and pickles its witness back; the parent's copy of each fresh
        value is the parent's object."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("start method 'spawn' unavailable")
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "spawn")
        schema = DatabaseSchema([RelationSchema("R", ["a", "b"])])
        master = Instance(DatabaseSchema([RelationSchema("M", ["a"])]),
                          {"M": set()})
        query = cq([var("x")], [rel("R", var("x"), var("y"))], name="Q")
        database = Instance(schema, {"R": set()})
        serial = decide_rcdp(query, database, master, [])
        pooled = decide_rcdp(query, database, master, [], workers=2)
        facts = pooled.certificate.extension_facts
        assert facts == serial.certificate.extension_facts
        values = [value for _, row in facts for value in row]
        assert values and all(is_fresh(value) for value in values)
        assert all(value is FreshValue(value.label) for value in values)
