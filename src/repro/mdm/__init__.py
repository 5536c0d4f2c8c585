"""Master-data-management scenario, generators, and audit workflows."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mdm.audit import AuditReport, AuditVerdict, CompletenessAudit
    from repro.mdm.generators import GeneratorConfig, generate_scenario
    from repro.mdm.scenario import (CRMScenario, CustomerRecord,
                                    DOMESTIC_COUNTRY_CODE)
    from repro.mdm.scm import SCMScenario

__all__ = [
    "AuditReport",
    "AuditVerdict",
    "CompletenessAudit",
    "CRMScenario",
    "CustomerRecord",
    "DOMESTIC_COUNTRY_CODE",
    "GeneratorConfig",
    "SCMScenario",
    "generate_scenario",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.mdm.audit": ("AuditReport", "AuditVerdict", "CompletenessAudit"),
    "repro.mdm.generators": ("GeneratorConfig", "generate_scenario"),
    "repro.mdm.scenario": ("CRMScenario", "CustomerRecord",
                           "DOMESTIC_COUNTRY_CODE"),
    "repro.mdm.scm": ("SCMScenario",),
})
