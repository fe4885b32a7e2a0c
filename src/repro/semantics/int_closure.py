"""Compatibility entry for the benchmark's layer probe — nothing else calls it.

``e2ebench/layers.py`` times ``int_recursive_closure(core, base, restrictor,
bound, None)`` as ``semantics.int_closure_ms``.  There is no int-encoded
closure any more: the one kernel in :mod:`repro.semantics.restrictors` runs on
the base's own identifiers whatever the graph's encoding, so this runs it and
ignores ``compact``.  Delete together with the probe's import.
"""

from repro.semantics.restrictors import recursive_closure

__all__ = ["int_recursive_closure"]


def int_recursive_closure(compact, base, restrictor, max_length, budget, seeds=None):
    """``recursive_closure(base, restrictor, max_length, budget, seeds)``."""
    return recursive_closure(base, restrictor, max_length, budget, seeds)
