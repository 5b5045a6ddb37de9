"""Static lint for task/workload code (see ``python -m repro.check.lint``)."""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".engine": ["lint_paths", "lint_source", "select_rules"],
    ".rules": ["RULES", "Finding", "Rule"],
})

__all__ = ["RULES", "Finding", "Rule", "lint_paths", "lint_source",
           "select_rules"]
