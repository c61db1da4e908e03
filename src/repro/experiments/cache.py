"""Content-addressed result cache for experiment work units.

Every simulation the experiment suite runs is a pure function of its
inputs: the cluster spec, the topology specs, the scheduler (name +
parameters), the :class:`~repro.simulation.config.SimulationConfig` and
the code itself (the DES is deterministic — no wall-clock or RNG state
leaks into a report).  That makes results memoisable: a
:class:`ResultCache` stores each finished
:class:`~repro.experiments.harness.SingleRunOutcome` on disk under a
stable SHA-256 key of those inputs, so re-running a figure command only
simulates what changed.

Key structure (see :func:`cache_key`)::

    sha256(v1 || code_version || stable_token(work unit))

* ``code_version`` is a digest over every ``repro`` source file, so any
  change to the library invalidates the whole cache — the conservative
  rule that keeps cached rows trustworthy.
* :func:`stable_token` canonicalises a work unit into a JSON-able
  structure: dataclasses by field, enums by qualified member name,
  callables by qualified name, floats by exact ``repr``.  Anything it
  cannot canonicalise raises :class:`CacheKeyError` instead of silently
  producing an unstable key.
* A unit is keyed by its own fields, so a field added to a unit joins
  its key automatically; fields declared ``compare=False`` (a unit's
  presentational ``label``) are left out.  Keys were once built from
  hand-written ``cache_token()`` methods instead; entries written under
  those keys simply miss once and are rebuilt.

Cache layout on disk::

    <root>/<key[:2]>/<key>.pkl     one pickled outcome per work unit

Entries are written atomically (temp file + ``os.replace``) so a killed
worker never leaves a truncated entry, and unreadable entries are
treated as misses and deleted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Iterator, Optional

__all__ = [
    "CacheKeyError",
    "stable_token",
    "code_version",
    "cache_key",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
]

#: Default on-disk location used by the CLI (overridable via
#: ``--cache-dir`` or the ``REPRO_CACHE_DIR`` environment variable).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to invalidate every existing cache entry on format changes.
_KEY_VERSION = "v1"


class CacheKeyError(TypeError):
    """An object in a work unit cannot be canonicalised into a stable key."""


def stable_token(obj: Any) -> Any:
    """Canonicalise ``obj`` into a JSON-serialisable token.

    Equal inputs produce equal tokens across processes and interpreter
    restarts; unsupported types raise :class:`CacheKeyError` so key
    instability surfaces at build time, not as silently wrong hits.

    Types that are neither dataclasses nor containers opt in by defining
    ``__cache_token__(self)`` returning any tokenisable value (see
    :class:`~repro.cluster.resources.ResourceVector`).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    token_hook = getattr(type(obj), "__cache_token__", None)
    if token_hook is not None:
        return ["custom", _qualname(type(obj)), stable_token(token_hook(obj))]
    if isinstance(obj, float):
        # repr() round-trips floats exactly; json would too, but being
        # explicit keeps the token readable when debugging keys.
        return ["f", repr(obj)]
    if isinstance(obj, enum.Enum):
        return ["enum", _qualname(type(obj)), obj.name]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # ``compare=False`` marks a presentational field (a unit's
        # ``label``): equal work must share a key whatever it is called
        fields = {
            f.name: stable_token(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.compare
        }
        return ["dc", _qualname(type(obj)), fields]
    if isinstance(obj, (list, tuple)):
        return ["seq", [stable_token(item) for item in obj]]
    if isinstance(obj, (set, frozenset)):
        tokens = [stable_token(item) for item in obj]
        return ["set", sorted(tokens, key=lambda t: json.dumps(t, sort_keys=True))]
    if isinstance(obj, dict):
        items = [
            [stable_token(k), stable_token(v)] for k, v in obj.items()
        ]
        return ["map", sorted(items, key=lambda kv: json.dumps(kv[0], sort_keys=True))]
    if isinstance(obj, bytes):
        return ["bytes", obj.hex()]
    if callable(obj):
        # Functions and classes are identified by where they live; their
        # behaviour is covered by code_version().
        return ["callable", _qualname(obj)]
    raise CacheKeyError(
        f"cannot build a stable cache token for {type(obj).__name__}: {obj!r}"
    )


def _qualname(obj: Any) -> str:
    module = getattr(obj, "__module__", None) or "?"
    qual = getattr(obj, "__qualname__", None) or getattr(obj, "__name__", repr(obj))
    return f"{module}.{qual}"


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``repro`` source file.

    Any library change — scheduler, DES, workloads — changes this digest
    and thereby invalidates all cached outcomes.  Computed once per
    process.
    """
    import repro

    package_root = pathlib.Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cache_key(unit: Any) -> str:
    """The stable SHA-256 cache key of a work unit."""
    payload = json.dumps(
        [_KEY_VERSION, code_version(), stable_token(unit)],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """On-disk memoisation of work-unit outcomes.

    Args:
        root: Cache directory (created on first write).

    Attributes:
        hits/misses: Lookup counters for this process, reported by the
            CLI after each experiment.
    """

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR):
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    # -- lookup ----------------------------------------------------------

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """The cached outcome for ``key``, or ``None`` on a miss.

        Corrupted/unreadable entries count as misses and are removed.
        """
        from repro.simulation.export import load_outcome

        path = self.path_for(key)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            outcome = load_outcome(str(path))
        except Exception:
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return outcome

    def put(self, key: str, outcome: Any) -> None:
        """Store ``outcome`` under ``key`` atomically."""
        from repro.simulation.export import dump_outcome

        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".pkl"
        )
        try:
            os.close(fd)
            dump_outcome(outcome, tmp)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    # -- maintenance -----------------------------------------------------

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.pkl")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in list(self.keys()):
            self.path_for(key).unlink(missing_ok=True)
            removed += 1
        return removed

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
