"""In-memory ZooKeeper substitute.

Storm's master keeps its membership view in ZooKeeper (paper Section 2:
"Nimbus communicates and coordinates with Zookeeper to maintain a
consistent list of active worker nodes and to detect failure in the
membership").  This module implements the slice of the ZooKeeper data
model that coordination needs: a path-addressed tree of znodes and
ephemeral nodes bound to sessions.  There are no watches: Nimbus polls
``children`` and supervisors check ``session_alive`` and ``exists``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro.errors import MembershipError

__all__ = ["InMemoryZooKeeper", "ZNode"]


@dataclass
class ZNode:
    """One node in the znode tree."""

    path: str
    data: Any = None
    ephemeral_session: Optional[int] = None
    version: int = 0


def _validate_path(path: str) -> str:
    if not path.startswith("/") or (path != "/" and path.endswith("/")):
        raise MembershipError(f"invalid znode path {path!r}")
    return path


def _parent(path: str) -> str:
    if path == "/":
        return "/"
    head, _, _ = path.rpartition("/")
    return head or "/"


class InMemoryZooKeeper:
    """A single-process znode tree with sessions."""

    def __init__(self) -> None:
        self._nodes: Dict[str, ZNode] = {"/": ZNode("/")}
        self._sessions: Dict[int, Set[str]] = {}
        self._session_counter = itertools.count(1)

    # -- sessions -----------------------------------------------------------

    def create_session(self) -> int:
        session = next(self._session_counter)
        self._sessions[session] = set()
        return session

    def expire_session(self, session: int) -> None:
        """Delete every ephemeral znode owned by ``session`` (supervisor
        crash / heartbeat loss)."""
        paths = self._sessions.pop(session, None)
        if paths is None:
            raise MembershipError(f"unknown session {session}")
        for path in sorted(paths, key=len, reverse=True):
            if path in self._nodes:
                self._delete_existing(path)

    def session_alive(self, session: int) -> bool:
        return session in self._sessions

    # -- znode CRUD -----------------------------------------------------------

    def create(
        self,
        path: str,
        data: Any = None,
        ephemeral: bool = False,
        session: Optional[int] = None,
    ) -> None:
        """Create a znode.  The parent must exist; ephemeral nodes need a
        live session and cannot have children."""
        _validate_path(path)
        if path in self._nodes:
            raise MembershipError(f"znode {path!r} already exists")
        parent = _parent(path)
        parent_node = self._nodes.get(parent)
        if parent_node is None:
            raise MembershipError(f"parent znode {parent!r} does not exist")
        if parent_node.ephemeral_session is not None:
            raise MembershipError(
                f"ephemeral znode {parent!r} cannot have children"
            )
        if ephemeral:
            if session is None or session not in self._sessions:
                raise MembershipError(
                    f"ephemeral znode {path!r} needs a live session"
                )
            self._sessions[session].add(path)
            self._nodes[path] = ZNode(path, data, ephemeral_session=session)
        else:
            self._nodes[path] = ZNode(path, data)

    def ensure_path(self, path: str) -> None:
        """Create ``path`` and any missing ancestors (persistent nodes)."""
        _validate_path(path)
        parts = [p for p in path.split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            if current not in self._nodes:
                self.create(current)

    def set(self, path: str, data: Any) -> None:
        node = self._get(path)
        node.data = data
        node.version += 1

    def get(self, path: str) -> Any:
        return self._get(path).data

    def version(self, path: str) -> int:
        return self._get(path).version

    def exists(self, path: str) -> bool:
        return path in self._nodes

    def delete(self, path: str) -> None:
        _validate_path(path)
        if path == "/":
            raise MembershipError("cannot delete the root znode")
        if path not in self._nodes:
            raise MembershipError(f"znode {path!r} does not exist")
        if self.children(path):
            raise MembershipError(f"znode {path!r} has children")
        self._delete_existing(path)

    def children(self, path: str) -> List[str]:
        self._get(path)
        prefix = path if path.endswith("/") else path + "/"
        out = []
        for candidate in self._nodes:
            if candidate.startswith(prefix) and "/" not in candidate[len(prefix):]:
                out.append(candidate[len(prefix):])
        return sorted(out)

    # -- internals ------------------------------------------------------------------

    def _get(self, path: str) -> ZNode:
        _validate_path(path)
        node = self._nodes.get(path)
        if node is None:
            raise MembershipError(f"znode {path!r} does not exist")
        return node

    def _delete_existing(self, path: str) -> None:
        node = self._nodes.pop(path)
        if node.ephemeral_session is not None:
            owned = self._sessions.get(node.ephemeral_session)
            if owned is not None:
                owned.discard(path)
