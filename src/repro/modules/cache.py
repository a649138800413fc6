"""Content-addressed caching of per-binding inference results.

Every binding's checked type is stored under a *key* that captures
exactly the inputs its inference depends on:

* the pretty-printed definition (so whitespace/comment edits miss
  nothing and change nothing),
* the pretty-printed declared signature (or its absence),
* for every dependency, the dependency's name paired with the hash of
  the *type* it checked to — a module-level dependency contributes the
  hash of its checked type, an in-group (mutually recursive) dependency
  contributes its declared signature, and a prelude name contributes its
  environment type.

Hash-chaining through dependency *types* (not dependency sources) gives
early cutoff for free: editing the body of a leaf binding without
changing its type leaves every dependent's key intact, so only the
edited SCC re-checks.  When the edit does change the leaf's type, the
key of every transitive dependent changes and exactly the invalidation
footprint (:func:`repro.modules.graph.dependents_closure`) re-checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field

from repro.core.env import Environment
from repro.core.types import Type
from repro.modules.graph import BindingGroup
from repro.modules.parser import Binding


def content_hash(text: str) -> str:
    """A short, stable hex digest of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CacheEntry:
    """The checked result of one binding under one key."""

    key: str
    type_: Type
    """The checked type itself.  Types are immutable, so serving the same
    object across re-checks is safe — and keeps the warm path free of
    type re-parsing, which would otherwise dominate it."""

    type_text: str
    """``str(type_)``, precomputed: it feeds the type hash and reports."""

    type_hash: str
    """``content_hash(type_text)``, precomputed: every dependent's key
    reads it."""


@dataclass
class ModuleCache:
    """Per-binding result cache, keyed by content hash.

    One cache instance is long-lived across re-checks of an evolving
    module; :meth:`lookup` answers only when the stored key matches the
    freshly computed one, so stale entries are simply never served (and
    are overwritten by the next :meth:`store`).
    """

    entries: dict[str, CacheEntry] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def peek(self, name: str, key: str) -> CacheEntry | None:
        """Like :meth:`lookup` but without touching the hit/miss counters.

        The engine decides hits at *group* granularity (a group re-checks
        whole or not at all), so it peeks members first and accounts once
        the group's fate is known.
        """
        entry = self.entries.get(name)
        if entry is not None and entry.key == key:
            return entry
        return None

    def lookup(self, name: str, key: str) -> CacheEntry | None:
        entry = self.entries.get(name)
        if entry is not None and entry.key == key:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(self, name: str, key: str, type_: Type) -> CacheEntry:
        type_text = str(type_)
        entry = CacheEntry(key, type_, type_text, content_hash(type_text))
        self.entries[name] = entry
        return entry

    def type_hash(self, name: str) -> str | None:
        entry = self.entries.get(name)
        return entry.type_hash if entry else None

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    # -- persistence ----------------------------------------------------
    #
    # The cache round-trips through JSON as (key, pretty-printed type)
    # pairs; types are rebuilt by parsing their pretty form, which the
    # pretty/parse round-trip property guarantees is lossless.  This is
    # what makes cache hits survive across *processes*: a second
    # ``python -m repro module`` run of an unchanged file starts warm.

    SCHEMA_VERSION = 1

    def save(self, path: str) -> None:
        """Write the cache to ``path`` as JSON, atomically.

        The payload goes to a temporary file in the same directory which
        is then renamed over ``path`` (``os.replace`` is atomic on POSIX
        and Windows), so a process killed mid-save — or a full disk —
        can never leave a truncated sidecar behind: readers see either
        the old complete file or the new complete file.  The load path's
        damage→cold-start recovery stays as a second line of defence,
        but corruption is no longer reachable through this writer.
        """
        payload = {
            "version": self.SCHEMA_VERSION,
            "entries": {
                name: {"key": entry.key, "type": entry.type_text}
                for name, entry in self.entries.items()
            },
        }
        target = os.path.abspath(path)
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=os.path.dirname(target),
            prefix=os.path.basename(target) + ".",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                json.dump(payload, handle, ensure_ascii=False, indent=1)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, target)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "ModuleCache":
        """Read a cache written by :meth:`save`.

        Any problem — missing file, corrupt JSON, unknown version, an
        unparseable type — yields an *empty* cache: persistence is an
        optimisation, never a correctness dependency, so a bad cache file
        degrades to a cold start instead of an error.
        """
        from repro.syntax import parse_type

        cache = cls()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("version") != cls.SCHEMA_VERSION:
                return cls()
            for name, item in payload.get("entries", {}).items():
                type_text = item["type"]
                cache.entries[name] = CacheEntry(
                    key=item["key"],
                    type_=parse_type(type_text),
                    type_text=type_text,
                    type_hash=content_hash(type_text),
                )
        except Exception:  # noqa: BLE001 — cold start on any damage
            return cls()
        return cache


def binding_key(
    binding: Binding,
    group: BindingGroup,
    dep_type_hashes: dict[str, str],
    env: Environment,
    env_hashes: dict[str, tuple[Type, str]],
) -> str:
    """The cache key of one binding inside its group.

    ``dep_type_hashes`` maps already-checked module-level names to the
    hash of their checked type.  In-group dependencies (the mutual
    recursion case) are keyed by their declared signatures — which the
    group requires anyway — and prelude names by their environment types.
    ``env_hashes`` memoises the hash of each environment type by name
    across calls (pass the same dict for every key of one environment);
    an entry is used only while the name still has the same type object.
    """
    members = set(group.names)
    pieces = [binding.source_key]
    for dependency in sorted(binding.free_term_vars()):
        if dependency == binding.name:
            continue
        if dependency in members:
            peer = next(b for b in group.bindings if b.name == dependency)
            sig = "" if peer.signature is None else str(peer.signature)
            pieces.append(f"{dependency}~sig:{content_hash(sig)}")
        elif dependency in dep_type_hashes:
            pieces.append(f"{dependency}~mod:{dep_type_hashes[dependency]}")
        elif dependency in env:
            pieces.append(f"{dependency}~env:{_env_type_hash(env, dependency, env_hashes)}")
        else:
            pieces.append(f"{dependency}~unbound")
    return content_hash("\n".join(pieces))


def _env_type_hash(env: Environment, name: str, memo: dict[str, tuple[Type, str]]) -> str:
    """``content_hash(str(env.lookup(name)))``, read from ``memo`` when
    it holds the hash of this very type."""
    type_ = env.lookup(name)
    known = memo.get(name)
    if known is None or known[0] is not type_:
        known = memo[name] = (type_, content_hash(str(type_)))
    return known[1]
