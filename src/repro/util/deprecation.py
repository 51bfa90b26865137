"""Deprecation plumbing for superseded entry points and spellings.

The facade (:mod:`repro.api`) is the stable surface; superseded entry
points keep working for at least one release but route through
:func:`warn_deprecated` so callers get a one-line migration hint (the
"Currently shimmed" table in ``docs/API.md`` lists every call site).
CI runs the test suite with ``-W error::DeprecationWarning`` filtered to
``repro.*`` modules, so any *internal* caller of a shim fails the build
while external callers only see the warning.
"""

from __future__ import annotations

import warnings

__all__ = ["warn_deprecated"]


def warn_deprecated(old: str, replacement: str, *, stacklevel: int = 3) -> None:
    """Emit the standard shim warning: ``<old> is deprecated; use <new>``.

    ``stacklevel=3`` points the warning at the shim's caller (helper →
    shim → caller), which is also what scopes the CI error filter to
    internal callers.
    """
    warnings.warn(
        f"{old} is deprecated; use {replacement} instead",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
