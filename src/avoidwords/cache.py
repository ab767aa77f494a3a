"""Durable on-disk cache for computed artifacts.

Entries are JSON files keyed by (kind, r, parameters, tool version); the
payload carries a content hash so stale or corrupted entries read as misses.
Writes go through an advisory file lock so concurrent processes do not
interleave.
"""

import fcntl
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

from . import __version__

ENV_CACHE_DIR = "AVOIDWORDS_CACHE_DIR"


def default_cache_dir():
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "avoidwords"


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_hash(payload):
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


class Cache:
    def __init__(self, directory=None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def _key_path(self, kind, r, parameters):
        digest = hashlib.sha256(
            _canonical({"kind": kind, "r": r, "parameters": parameters,
                        "tool_version": __version__}).encode()
        ).hexdigest()[:16]
        return self.directory / f"{kind}_r{r}_{digest}.json"

    @contextmanager
    def _lock(self):
        self.directory.mkdir(parents=True, exist_ok=True)
        lock_path = self.directory / ".lock"
        with open(lock_path, "w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def load(self, kind, r, parameters):
        """The cached payload, or None on any kind of miss."""
        path = self._key_path(kind, r, parameters)
        if not path.is_file():
            return None
        with self._lock():
            try:
                data = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                return None
        if not isinstance(data, dict):
            return None
        if data.get("tool_version") != __version__:
            return None
        if data.get("content_hash") != payload_hash(data.get("payload", {})):
            return None
        return data["payload"]

    def store(self, kind, r, parameters, payload):
        """Write the entry document; returns it as a dict."""
        entry = {
            "kind": kind,  # sequence | equation | report
            "r": r,
            "parameters": dict(parameters),
            "payload": payload,
            "content_hash": payload_hash(payload),
            "tool_version": __version__,
        }
        path = self._key_path(kind, r, parameters)
        with self._lock():
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(entry, sort_keys=True, indent=1))
            tmp.replace(path)
        return entry
