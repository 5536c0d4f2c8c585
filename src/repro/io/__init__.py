"""JSON serialization for problem instances."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.io.json_io import (constraint_from_dict, constraint_to_dict,
                                  dump_bundle, instance_from_dict,
                                  instance_to_dict, load_bundle,
                                  query_from_dict, query_to_dict,
                                  schema_from_dict, schema_to_dict)

__all__ = [
    "constraint_from_dict", "constraint_to_dict", "dump_bundle",
    "instance_from_dict", "instance_to_dict", "load_bundle",
    "query_from_dict", "query_to_dict", "schema_from_dict",
    "schema_to_dict",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.io.json_io": ("constraint_from_dict", "constraint_to_dict",
                         "dump_bundle", "instance_from_dict",
                         "instance_to_dict", "load_bundle", "query_from_dict",
                         "query_to_dict", "schema_from_dict",
                         "schema_to_dict"),
})
