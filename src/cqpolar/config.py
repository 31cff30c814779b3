"""Resource ceilings for synthetic-channel construction.

Caps fail fast with :class:`~cqpolar.errors.CapacityError` instead of
degrading to approximations, since downstream inequality checks assume exact
quantities.  ``CQPOLAR_DIM_CAP`` in the environment overrides the quantum
dimension ceiling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapacityError

DEFAULT_DIM_CAP = 4096
DEFAULT_BRANCH_CAP = 65536
DEFAULT_COLUMN_CAP = 2_000_000


def _env_dim_cap() -> int:
    raw = os.environ.get("CQPOLAR_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 1:  # a cap below 1 would refuse every transform and blame it
        raise CapacityError(f"CQPOLAR_DIM_CAP must be an integer >= 1, got {raw!r}")
    return cap


@dataclass(frozen=True)
class ResourceCaps:
    """dim_cap bounds quantum dimension, branch_cap the classical label count,
    column_cap the merged output alphabet of the diagonal engine."""

    dim_cap: int = None
    branch_cap: int = DEFAULT_BRANCH_CAP
    column_cap: int = DEFAULT_COLUMN_CAP

    def __post_init__(self):
        if self.dim_cap is None:
            object.__setattr__(self, "dim_cap", _env_dim_cap())

    def check_dim(self, dim: int, context: str) -> None:
        if dim > self.dim_cap:
            raise CapacityError(
                f"{context}: quantum dimension {dim} exceeds cap {self.dim_cap}"
            )

    def check_branches(self, count: int, context: str) -> None:
        if count > self.branch_cap:
            raise CapacityError(
                f"{context}: classical branch count {count} exceeds cap {self.branch_cap}"
            )

    def check_columns(self, count: int, context: str) -> None:
        if count > self.column_cap:
            raise CapacityError(
                f"{context}: output alphabet size {count} exceeds cap {self.column_cap}"
            )


def default_caps() -> ResourceCaps:
    return ResourceCaps()
