"""Attribute domains and fresh-value supply.

The paper (Section 2.1) assumes each attribute domain is either a countably
infinite set ``d`` or a finite set ``d_f`` with at least two elements.  We
model both:

* :data:`INFINITE` — the single infinite domain.  Any hashable constant (and
  any :class:`FreshValue`) belongs to it.
* :class:`FiniteDomain` — an explicit finite set of constants.

Fresh values (the set ``New`` of Section 3.2) are represented by the
dedicated :class:`FreshValue` type so they can never collide with user
constants; this is what makes the small-model valuation enumeration sound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator

from repro.errors import DomainError

__all__ = [
    "Domain",
    "InfiniteDomain",
    "FiniteDomain",
    "INFINITE",
    "BOOLEAN",
    "FreshValue",
    "FreshValueSupply",
    "is_fresh",
]


#: The one :class:`FreshValue` of each label.
_FRESH: dict[str, "FreshValue"] = {}


class FreshValue:
    """A value guaranteed distinct from every user-supplied constant.

    Fresh values implement the paper's set ``New``: "a set of distinct values
    not in D, Dm, Q and V, one for each variable" (Section 3.2).  Two fresh
    values are equal iff their labels are equal: there is one object per
    label (interned with ``dict.setdefault``, so two threads cannot make
    two), and equality and hashing are the object's identity, which a set
    or dict lookup tests in C.  Unpickling and copying re-intern, so a
    value returned by a spawned worker or copied is the parent's object.
    Immutable, and never equal to a user constant.

    The intern table lives as long as the process and never frees an
    entry.  It holds one value per label ever made, and a supply's labels
    repeat from run to run (its prefix, a variable or query name and a
    counter that starts at 0), so the table grows with the distinct names
    a process meets, not with the decisions it makes.
    """

    __slots__ = ("label",)

    label: str

    def __new__(cls, label: str) -> "FreshValue":
        value = _FRESH.get(label)
        if value is None:
            value = object.__new__(cls)
            object.__setattr__(value, "label", label)
            value = _FRESH.setdefault(label, value)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r}: "
                             "fresh values are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: "
                             "fresh values are immutable")

    def __reduce__(self) -> tuple:
        return FreshValue, (self.label,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"⊥{self.label}"


def is_fresh(value: Any) -> bool:
    """Return True when *value* is a :class:`FreshValue`."""
    return isinstance(value, FreshValue)


class Domain:
    """Abstract attribute domain."""

    #: True for the countably infinite domain ``d``.
    is_infinite: bool = False

    def __contains__(self, value: Any) -> bool:
        raise NotImplementedError

    def validate(self, value: Any, context: str = "") -> None:
        """Raise :class:`DomainError` unless *value* belongs to the domain."""
        if value not in self:
            where = f" ({context})" if context else ""
            raise DomainError(
                f"value {value!r} is not in domain {self!r}{where}")


class InfiniteDomain(Domain):
    """The countably infinite domain ``d``.

    Every hashable constant belongs to it, including fresh values.  There is
    a single canonical instance, :data:`INFINITE`.
    """

    is_infinite = True

    def __contains__(self, value: Any) -> bool:
        return isinstance(value, Hashable)

    def __repr__(self) -> str:
        return "d∞"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InfiniteDomain)

    def __hash__(self) -> int:
        return hash(InfiniteDomain)


#: Canonical instance of the infinite domain.
INFINITE = InfiniteDomain()


@dataclass(frozen=True)
class FiniteDomain(Domain):
    """A finite domain ``d_f`` given by an explicit set of constants.

    The paper requires finite domains to have at least two elements; we
    enforce that to keep the semantics of inequality atoms meaningful.
    """

    values: frozenset = field()
    name: str = "d_f"

    def __init__(self, values: Any, name: str = "d_f") -> None:
        frozen = frozenset(values)
        if len(frozen) < 2:
            raise DomainError(
                f"finite domain {name!r} must have at least two elements, "
                f"got {sorted(map(repr, frozen))}")
        if any(is_fresh(v) for v in frozen):
            raise DomainError(
                f"finite domain {name!r} may not contain fresh values")
        object.__setattr__(self, "values", frozen)
        object.__setattr__(self, "name", name)

    is_infinite = False

    def __contains__(self, value: Any) -> bool:
        return value in self.values

    def __iter__(self) -> Iterator[Any]:
        # Deterministic iteration order helps reproducibility of the
        # valuation enumeration.
        return iter(sorted(self.values, key=repr))

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in sorted(self.values, key=repr))
        return f"{self.name}{{{inner}}}"


#: The Boolean domain {0, 1}, used pervasively by the hardness reductions.
BOOLEAN = FiniteDomain((0, 1), name="bool")


class FreshValueSupply:
    """Deterministic generator of distinct :class:`FreshValue` objects.

    A supply hands out fresh values ``⊥<prefix>0, ⊥<prefix>1, ...``; separate
    supplies with distinct prefixes never collide.
    """

    def __init__(self, prefix: str = "new") -> None:
        self._prefix = prefix
        self._counter = itertools.count()

    def take(self, hint: str = "") -> FreshValue:
        """Return the next fresh value; *hint* is embedded in the label for
        readable counterexamples."""
        index = next(self._counter)
        middle = f"{hint}." if hint else ""
        return FreshValue(f"{self._prefix}.{middle}{index}")

    def take_many(self, count: int, hint: str = "") -> list[FreshValue]:
        """Return *count* distinct fresh values."""
        return [self.take(hint) for _ in range(count)]
