"""Persistent on-disk result cache for the experiment harness.

Drain episodes and whole experiment results are pure functions of the
configuration, the scheme, the fill/drain seeds, and the simulator source
itself, so both can be cached across runner invocations (and shared between
the runner, the benchmarks, and parallel worker processes).  Entries live
under ``results/.cache/`` (override with ``REPRO_CACHE_DIR``), one pickle
file per key.

Keys are a SHA-256 over a canonical JSON encoding of:

* the full :class:`~repro.common.config.SystemConfig` (every field, so any
  geometry/latency/security change invalidates),
* the scheme / experiment name, fill mode, and the fill/drain seeds,
* a *code version* fingerprint over every ``.py`` file in the ``repro``
  package — (relpath, size, mtime_ns) per file — so editing the simulator
  safely invalidates every cached result.  ``REPRO_CODE_VERSION`` pins
  the fingerprint explicitly, e.g. in tests.

Corrupted or truncated cache files are treated as misses (and removed);
the cache never turns a readable-but-wrong file into a crash.
"""

import hashlib
import json
import logging
import os
import pickle
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

from repro.common.config import SystemConfig

logger = logging.getLogger(__name__)

CACHE_FORMAT = 1
DEFAULT_CACHE_DIR = Path("results") / ".cache"

CACHE_LOAD_ERRORS = (
    OSError,              # unreadable file / permission / truncated read
    EOFError,             # truncated pickle stream
    pickle.UnpicklingError,
    ValueError,           # key/format mismatch raised below, bad pickle data
    KeyError,             # entry dict missing "payload"
    IndexError,           # corrupted pickle opcodes
    TypeError,            # entry is not subscriptable / wrong shapes
    AttributeError,       # payload class no longer importable as pickled
    ImportError,          # payload module no longer importable
    MemoryError,          # absurd length prefix in a corrupted stream
    UnicodeDecodeError,   # corrupted string opcodes
)
"""Everything a corrupt, truncated, or stale cache entry can raise while
being loaded.  Deliberately *not* ``Exception``: a programming error in the
simulator must crash the run, only bad bytes on disk may become a miss."""


@lru_cache(maxsize=1)
def code_version() -> str:
    """Fingerprint of the installed ``repro`` sources.

    Sorted ``(relpath, size, mtime_ns)`` entries: one ``stat`` per file,
    exactly right for local editing (fresh checkouts reset mtimes, so
    they start with a cold cache).  ``REPRO_CODE_VERSION`` overrides the
    computed fingerprint entirely, which lets tests exercise invalidation
    and lets deployments pin a release tag.
    """
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    import repro

    root = Path(repro.__file__).resolve().parent
    entries: list[tuple] = []
    for path in sorted(root.rglob("*.py")):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((str(path.relative_to(root)), stat.st_size,
                        stat.st_mtime_ns))
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    return digest[:16]


def config_token(config: SystemConfig) -> str:
    """Canonical string encoding of every configuration field."""
    return json.dumps(asdict(config), sort_keys=True, default=str)


def _digest(kind: str, parts: dict) -> str:
    payload = {"kind": kind, "code_version": code_version(), **parts}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def episode_key(config: SystemConfig, scheme: str, fill: str,
                fill_seed: int, drain_seed: int) -> str:
    """Cache key for one (config, scheme, fill, seeds) drain episode."""
    return _digest("episode", {
        "config": config_token(config),
        "scheme": scheme,
        "fill": fill,
        "fill_seed": fill_seed,
        "drain_seed": drain_seed,
    })


def experiment_key(name: str, config: SystemConfig, scale: int,
                   functional: bool, fill_seed: int,
                   drain_seed: int) -> str:
    """Cache key for one whole experiment result."""
    return _digest("experiment", {
        "experiment": name,
        "config": config_token(config),
        "scale": scale,
        "functional": functional,
        "fill_seed": fill_seed,
        "drain_seed": drain_seed,
    })


def campaign_cell_key(config: SystemConfig, variant: str, scenario: str,
                      window: str, lines: int, fill_seed: int,
                      drain_seed: int) -> str:
    """Cache key for one adversarial-campaign cell.

    A cell is a pure function of the configuration, the (scheme, rotation)
    variant, the scenario × window coordinates, the episode size, and the
    seeds — plus the code version folded in by :func:`_digest`, so any
    simulator change re-runs the whole grid.
    """
    return _digest("campaign-cell", {
        "config": config_token(config),
        "variant": variant,
        "scenario": scenario,
        "window": window,
        "lines": lines,
        "fill_seed": fill_seed,
        "drain_seed": drain_seed,
    })


class ResultCache:
    """Pickle-per-key cache with hit/miss accounting.

    ``enabled=False`` turns every lookup into a miss and every store into a
    no-op (the ``--no-cache`` path); ``refresh=True`` keeps storing but
    ignores existing entries (the ``--refresh`` path).
    """

    def __init__(self, root: str | os.PathLike | None = None,
                 enabled: bool = True, refresh: bool = False):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.enabled = enabled
        self.refresh = refresh
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        """Misses caused by an unreadable/corrupt entry (subset of misses)."""

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str):
        """The cached payload for ``key``, or ``None`` on a miss."""
        if not self.enabled or self.refresh:
            self.misses += 1
            return None
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                entry = pickle.load(handle)
            if (not isinstance(entry, dict)
                    or entry.get("format") != CACHE_FORMAT
                    or entry.get("key") != key):
                raise ValueError("cache entry does not match its key")
            payload = entry["payload"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except CACHE_LOAD_ERRORS as exc:
            # Truncated/corrupted/stale-format files become misses (and are
            # removed): recomputing is always safe, crashing never is.  The
            # reason is logged so a recurring corruption source is visible.
            self.misses += 1
            self.corrupt += 1
            logger.warning("cache miss: dropping corrupt entry %s (%s: %s)",
                           path, type(exc).__name__, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload) -> None:
        """Store ``payload`` under ``key`` (atomic rename, concurrency-safe)."""
        if not self.enabled:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {"format": CACHE_FORMAT, "key": key, "payload": payload}
        tmp = self._path(key).with_suffix(f".tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1

    # -- bookkeeping ----------------------------------------------------------

    def counters(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt}

    def absorb_counters(self, counters: dict) -> None:
        """Fold a worker process's counters into this (parent) cache."""
        self.hits += counters.get("hits", 0)
        self.misses += counters.get("misses", 0)
        self.stores += counters.get("stores", 0)
        self.corrupt += counters.get("corrupt", 0)

    def spec(self) -> dict:
        """Picklable constructor arguments for rebuilding in a worker."""
        return {"root": str(self.root), "enabled": self.enabled,
                "refresh": self.refresh}
