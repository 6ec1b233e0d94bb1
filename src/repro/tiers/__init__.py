"""Tier server models.

Every tier of a declarative topology (:mod:`repro.cluster.spec`) is an
instance of one generic service model of :mod:`repro.tiers.base`:
:class:`FrontendTier` (the paper's Apache), :class:`WorkerTier`
(Tomcat) or :class:`PooledTier` (MySQL).
"""

from repro.tiers.base import (
    PRE_DB_FRACTION,
    DispatchDownstream,
    Dispatcher,
    FrontendTier,
    InlineDownstream,
    PooledTier,
    TierServer,
    WorkerTier,
)

__all__ = [
    "TierServer",
    "FrontendTier",
    "WorkerTier",
    "PooledTier",
    "InlineDownstream",
    "DispatchDownstream",
    "Dispatcher",
    "PRE_DB_FRACTION",
]
