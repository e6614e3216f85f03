import pytest

from lftree import cells
from lftree.cells import Cell, cas
from lftree.nodes import InternalNode, LeafNode, TreeConfig
from lftree.tree import LeafTree


def test_load_and_cas():
    c = Cell(5)
    assert c.load() == 5
    assert c.cas(5, 9)
    assert c.load() == 9
    assert not c.cas(5, 11)  # stale expectation
    assert c.load() == 9
    assert c == [9] and repr(c) == "Cell(9)"  # a one-entry word list


def test_cas_compares_identity_or_equality():
    sentinel = object()
    c = Cell(sentinel)
    assert c.cas(sentinel, "done")  # identity match, no __eq__ needed
    assert c.load() == "done"

    c2 = Cell((2, 0, 1))
    assert c2.cas((2, 0, 1), (0, 1, 0))  # equal tuple, fresh object
    assert c2.load() == (0, 1, 0)


def test_cas_on_distinct_cells_is_independent():
    a, b = Cell(0), Cell(0)
    assert a.cas(0, 1)
    assert b.load() == 0
    assert b.cas(0, 2)
    assert (a.load(), b.load()) == (1, 2)


def test_cas_on_list_words():
    words = [5, 0]
    assert cas(words, 0, 5, 9)
    assert not cas(words, 0, 5, 11)  # stale expectation
    assert cas(words, 1, 0, 7)       # its neighbour is independent
    assert words == [9, 7]
    sentinel = object()
    links = [sentinel]
    assert cas(links, 0, sentinel, "done")  # identity match
    assert links == ["done"]


class _Raises:
    """A slot value whose comparison fails."""

    def __eq__(self, other):
        raise RuntimeError("no comparison")

    __hash__ = object.__hash__


def _stripe_of(words, i=0):
    return cells._LOCKS[((id(words) >> 4) + i) & cells._MASK]


def test_cas_leaves_its_stripe_unlocked():
    words = [5, 0]
    assert cas(words, 1, 0, 7)                      # success
    assert not _stripe_of(words, 1).locked()
    assert not cas(words, 0, 4, 9)                  # failure
    assert not _stripe_of(words, 0).locked()
    words[0] = _Raises()
    with pytest.raises(RuntimeError):
        cas(words, 0, 4, 9)                         # the comparison raises
    assert not _stripe_of(words, 0).locked()


def test_cas_status_compares_by_equality():
    node = InternalNode([LeafNode(4)])
    node.status[0] = (2, 0, 1)
    assert cas(node.status, 0, (2, 0, 1), (0, 1, 0))  # equal, fresh tuple
    assert node.status == [(0, 1, 0)]
    assert not cas(node.status, 0, (2, 0, 1), (0, 2, 0))
    assert node.status == [(0, 1, 0)]


def test_cas_status_leaves_its_stripe_unlocked():
    node = InternalNode([LeafNode(4)])
    stripe = _stripe_of(node.status)
    assert cas(node.status, 0, node.status[0], (0, 1, 0))
    assert not stripe.locked()
    assert not cas(node.status, 0, (0, 0, 0), (0, 2, 0))
    assert not stripe.locked()
    node.status[0] = _Raises()
    with pytest.raises(RuntimeError):
        cas(node.status, 0, (0, 1, 0), (0, 2, 0))
    assert not stripe.locked()


class _Refuses(list):
    """A stats list whose append fails."""

    def append(self, item):
        raise RuntimeError("no update")


@pytest.mark.parametrize("field", ["begun", "records", "cleared"])
def test_a_stats_append_that_raises_leaves_every_stripe_unlocked(field):
    # a begin appends to `begun`, a link swap its record and a clear
    # whether it helped; the fifth insert splits the first leaf
    tree = LeafTree(TreeConfig(4, 4, 2))
    setattr(tree.stats, field, _Refuses())
    with pytest.raises(RuntimeError, match="no update"):
        for k in range(1, 6):
            tree.insert(k)
    assert not any(lock.locked() for lock in cells._LOCKS)
