"""Tier server models.

Every tier of a declarative topology (:mod:`repro.cluster.spec`) is an
instance of one generic service model of :mod:`repro.tiers.base`:
:class:`FrontendTier` (the paper's Apache), :class:`WorkerTier`
(Tomcat) or :class:`PooledTier` (MySQL).
"""

from repro.tiers.base import (
    PRE_DB_FRACTION,
    Dispatcher,
    FrontendTier,
    PooledTier,
    TierServer,
    WorkerTier,
)

__all__ = [
    "TierServer",
    "FrontendTier",
    "WorkerTier",
    "PooledTier",
    "Dispatcher",
    "PRE_DB_FRACTION",
]
