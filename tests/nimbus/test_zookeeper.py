"""Tests for the in-memory ZooKeeper substitute."""

import pytest

from repro.errors import MembershipError
from repro.nimbus.zookeeper import InMemoryZooKeeper


@pytest.fixture
def zk():
    return InMemoryZooKeeper()


class TestZNodeCrud:
    def test_create_and_get(self, zk):
        zk.create("/a", data={"x": 1})
        assert zk.get("/a") == {"x": 1}
        assert zk.exists("/a")

    def test_duplicate_create_rejected(self, zk):
        zk.create("/a")
        with pytest.raises(MembershipError):
            zk.create("/a")

    def test_parent_must_exist(self, zk):
        with pytest.raises(MembershipError):
            zk.create("/a/b")

    def test_invalid_paths_rejected(self, zk):
        with pytest.raises(MembershipError):
            zk.create("no-slash")
        with pytest.raises(MembershipError):
            zk.create("/trailing/")

    def test_ensure_path_creates_ancestors(self, zk):
        zk.ensure_path("/a/b/c")
        assert zk.exists("/a/b")
        zk.ensure_path("/a/b/c")  # idempotent

    def test_set_bumps_version(self, zk):
        zk.create("/a", data=1)
        assert zk.version("/a") == 0
        zk.set("/a", 2)
        assert zk.get("/a") == 2
        assert zk.version("/a") == 1

    def test_delete(self, zk):
        zk.create("/a")
        zk.delete("/a")
        assert not zk.exists("/a")

    def test_delete_with_children_rejected(self, zk):
        zk.ensure_path("/a/b")
        with pytest.raises(MembershipError):
            zk.delete("/a")

    def test_delete_root_rejected(self, zk):
        with pytest.raises(MembershipError):
            zk.delete("/")

    def test_children_sorted_direct_only(self, zk):
        zk.ensure_path("/a/z")
        zk.ensure_path("/a/b/deep")
        assert zk.children("/a") == ["b", "z"]

    def test_missing_node_raises(self, zk):
        with pytest.raises(MembershipError):
            zk.get("/ghost")


class TestSessions:
    def test_ephemeral_requires_session(self, zk):
        with pytest.raises(MembershipError):
            zk.create("/e", ephemeral=True)

    def test_expire_removes_ephemerals(self, zk):
        session = zk.create_session()
        zk.create("/e1", ephemeral=True, session=session)
        zk.create("/e2", ephemeral=True, session=session)
        zk.create("/persistent")
        zk.expire_session(session)
        assert not zk.exists("/e1")
        assert not zk.exists("/e2")
        assert zk.exists("/persistent")
        assert not zk.session_alive(session)

    def test_expire_unknown_session_rejected(self, zk):
        with pytest.raises(MembershipError):
            zk.expire_session(999)

    def test_ephemeral_cannot_have_children(self, zk):
        session = zk.create_session()
        zk.create("/e", ephemeral=True, session=session)
        with pytest.raises(MembershipError):
            zk.create("/e/child")

    def test_delete_ephemeral_unregisters_from_session(self, zk):
        session = zk.create_session()
        zk.create("/e", ephemeral=True, session=session)
        zk.delete("/e")
        zk.expire_session(session)  # must not fail on the deleted node

