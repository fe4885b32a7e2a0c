"""GQL / SQL-PGQ path modes: restrictors, selectors, and their algebra translation.

The :mod:`repro.semantics.translate` module (Table 7 translation) is not
re-exported here to keep the import graph acyclic — import it directly or use
the re-exports in the top-level :mod:`repro` package.
"""

from repro.semantics.restrictors import (
    Restrictor,
    filter_by_restrictor,
    recursive_closure,
    recursive_closure_postfilter,
    shortest_paths_per_pair,
)
from repro.semantics.selectors import (
    Selector,
    SelectorKind,
    SelectorPlan,
    apply_selector,
    selector_plan,
)

__all__ = [
    "Restrictor",
    "recursive_closure",
    "recursive_closure_postfilter",
    "filter_by_restrictor",
    "shortest_paths_per_pair",
    "Selector",
    "SelectorKind",
    "SelectorPlan",
    "selector_plan",
    "apply_selector",
]
