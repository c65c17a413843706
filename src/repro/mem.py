"""Shared memory-access vocabulary used by GPUs, CPUs, and HMCs."""

from __future__ import annotations

import enum
import itertools
import sys
from dataclasses import dataclass, field
from typing import Optional

#: ``slots=True`` (Python 3.10+) drops the per-instance ``__dict__``: one
#: MemoryAccess and one DecodedAddress are built per memory request.
_DATACLASS_OPTS = {"slots": True} if sys.version_info >= (3, 10) else {}


class AccessType(enum.Enum):
    READ = "read"
    WRITE = "write"
    ATOMIC = "atomic"

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE


@dataclass(frozen=True, **_DATACLASS_OPTS)
class DecodedAddress:
    """A physical address decoded through the memory address mapping
    (``RW:CLH:BK:CT:VL:LC:CLL:BY``, Section VI-A)."""

    cluster: int
    local_hmc: int
    vault: int
    bank: int
    row: int

    @property
    def hmc_index(self) -> int:
        """Index of the HMC within its cluster."""
        return self.local_hmc


_access_ids = itertools.count()


@dataclass(**_DATACLASS_OPTS)
class MemoryAccess:
    """One memory transaction as seen by the memory system."""

    paddr: int
    size: int
    type: AccessType
    requester: str = ""
    vaddr: Optional[int] = None
    decoded: Optional[DecodedAddress] = None
    aid: int = field(default_factory=lambda: next(_access_ids))

    @property
    def is_write(self) -> bool:
        return self.type is AccessType.WRITE

    def __repr__(self) -> str:  # pragma: no cover
        return f"MemoryAccess#{self.aid}({self.type.value} {self.size}B @0x{self.paddr:x})"
