"""Cache substrate: lines, set-associative caches, hierarchy, fill patterns."""

from repro.cache.cache import SetAssociativeCache
from repro.cache.fill import (
    PageAllocator,
    make_allocator,
    page_of,
    worst_case_addresses,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import CacheLine

__all__ = [
    "SetAssociativeCache",
    "CacheHierarchy",
    "CacheLine",
    "PageAllocator",
    "make_allocator",
    "page_of",
    "worst_case_addresses",
]
