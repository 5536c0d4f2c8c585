"""Containment constraints and the integrity constraints of Section 2.2."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.constraints.cfd import (ConditionalFunctionalDependency,
                                       FunctionalDependency)
    from repro.constraints.cind import ConditionalInclusionDependency
    from repro.constraints.compile import compile_all, compile_to_containment
    from repro.constraints.containment import (ContainmentConstraint,
                                               Projection, satisfies_all,
                                               violated_constraints)
    from repro.constraints.denial import DenialConstraint
    from repro.constraints.ind import InclusionDependency

__all__ = [
    "ConditionalFunctionalDependency",
    "ConditionalInclusionDependency",
    "ContainmentConstraint",
    "DenialConstraint",
    "FunctionalDependency",
    "InclusionDependency",
    "Projection",
    "compile_all",
    "compile_to_containment",
    "satisfies_all",
    "violated_constraints",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.constraints.cfd": ("ConditionalFunctionalDependency",
                              "FunctionalDependency"),
    "repro.constraints.cind": ("ConditionalInclusionDependency",),
    "repro.constraints.compile": ("compile_all", "compile_to_containment"),
    "repro.constraints.containment": ("ContainmentConstraint", "Projection",
                                      "satisfies_all",
                                      "violated_constraints"),
    "repro.constraints.denial": ("DenialConstraint",),
    "repro.constraints.ind": ("InclusionDependency",),
})
