"""Relational substrate: domains, schemas, set-semantics instances, and
pluggable storage backends."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.backends import (BACKEND_NAMES, StorageBackend,
                                           create_storage,
                                           resolve_backend_name)
    from repro.relational.domain import (BOOLEAN, FiniteDomain, FreshValue,
                                         FreshValueSupply, INFINITE,
                                         InfiniteDomain, is_fresh)
    from repro.relational.instance import Instance
    from repro.relational.schema import (Attribute, DatabaseSchema,
                                         RelationSchema)

__all__ = [
    "Attribute",
    "BACKEND_NAMES",
    "BOOLEAN",
    "DatabaseSchema",
    "FiniteDomain",
    "FreshValue",
    "FreshValueSupply",
    "INFINITE",
    "InfiniteDomain",
    "Instance",
    "RelationSchema",
    "StorageBackend",
    "create_storage",
    "is_fresh",
    "resolve_backend_name",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.relational.backends": ("BACKEND_NAMES", "StorageBackend",
                                  "create_storage", "resolve_backend_name"),
    "repro.relational.domain": ("BOOLEAN", "FiniteDomain", "FreshValue",
                                "FreshValueSupply", "INFINITE",
                                "InfiniteDomain", "is_fresh"),
    "repro.relational.instance": ("Instance",),
    "repro.relational.schema": ("Attribute", "DatabaseSchema",
                                "RelationSchema"),
})
