"""Static analysis and runtime invariant checking (``repro check``).

Two prongs guard the SPMD discipline the paper's algorithm depends on:

* **AST linter** (:mod:`repro.analysis.linter` + built-in
  :mod:`repro.analysis.checkers`): superstep-safety rules over kernel
  source -- cross-rank state access outside the MessageBus, In_Table
  mutation during REFINE, Out_Table reuse without reset, arithmetic on
  packed Eq.-5 keys.  Run via ``repro check <paths>`` or
  :func:`run_checks`; the registry is pluggable via
  :func:`register_checker`.  The linter's names resolve on first access
  (PEP 562), so ``import repro`` loads only the sanitizer.

* **Runtime sanitizer** (:mod:`repro.analysis.sanitizer`): opt-in contract
  hooks inside the hash tables, the bus and the parallel kernels that
  verify key-packing bounds, In_Table immutability per level, weight
  conservation across RECONSTRUCTION, Eq.-7 epsilon bounds and
  per-superstep rank participation.  Enable with ``REPRO_SANITIZE=1`` or
  ``detect_communities(..., sanitize=True)``; violations raise
  :class:`InvariantViolation` with the offending rank/level/iteration.
"""

import importlib

from .sanitizer import (
    NULL_SANITIZER,
    InvariantViolation,
    NullSanitizer,
    Sanitizer,
    resolve_sanitizer,
    sanitize_enabled,
)

#: The linter's public names and their modules.  Detection needs only the
#: sanitizer, so these load on first access (PEP 562), and with them the
#: built-in checker modules that fill the registry.
_LINTER_NAMES = {
    **dict.fromkeys(
        ("Finding", "findings_to_json", "findings_to_sarif", "format_findings"),
        "findings",
    ),
    **dict.fromkeys(
        (
            "CHECKERS", "CheckerBase", "Suppression", "apply_baseline",
            "available_profiles", "check_file", "get_checkers",
            "iter_python_files", "list_suppressions", "load_baseline",
            "register_checker", "run_checks",
        ),
        "linter",
    ),
}


def __getattr__(name: str):
    module = _LINTER_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import checkers, locks  # noqa: F401  (importing registers them)

    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "Finding",
    "format_findings",
    "findings_to_json",
    "findings_to_sarif",
    "CheckerBase",
    "CHECKERS",
    "register_checker",
    "get_checkers",
    "available_profiles",
    "iter_python_files",
    "check_file",
    "run_checks",
    "load_baseline",
    "apply_baseline",
    "list_suppressions",
    "Suppression",
    "InvariantViolation",
    "Sanitizer",
    "NullSanitizer",
    "NULL_SANITIZER",
    "sanitize_enabled",
    "resolve_sanitizer",
]
