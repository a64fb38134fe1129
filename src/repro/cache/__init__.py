"""Cache substrate: set-associative caches, hierarchy, fill patterns."""

from repro.cache.cache import MISS, SetAssociativeCache
from repro.cache.fill import (
    PageAllocator,
    make_allocator,
    page_of,
    worst_case_addresses,
)
from repro.cache.hierarchy import CacheHierarchy

__all__ = [
    "MISS",
    "SetAssociativeCache",
    "CacheHierarchy",
    "PageAllocator",
    "make_allocator",
    "page_of",
    "worst_case_addresses",
]
