"""Node types, configuration, and the status field.

The tree is leaf-oriented: all keys live in leaves, internal nodes hold
separators and child links only. A leaf owns a fixed-length list of D
slot words (see keyspace). An internal node owns an immutable tuple of
separators, a list of child links, and a one-entry status list whose
tuple serializes rebalancing among its grandchildren. Slots, links and
status are shared words, each an entry of a list: read them directly,
write them only with cells.cas (status with index 0).

Status word: a 4-tuple (parent_key, unbalanced_key, seq, step).
  step IDLE   - no rebalance pending; parent_key/unbalanced_key are 0.
  step PREP   - a rebalance is advertised: any thread may help by freezing
                the named nodes and building the replacement.
  step SWAP   - freezing is done; the only remaining write is one child-link
                CAS from the old parent to its replacement, then the clear.
  step FROZEN - terminal; the node's links and status never change again.
seq increments on every clear, so stale helpers fail their CASes.

Child j of an internal node covers keys in (separators[j-1], separators[j]],
with the missing end separators meaning 0 and MAX_KEY. Equal keys go left.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .keyspace import EMPTY, _exact_int

IDLE = 0
PREP = 1
SWAP = 2
FROZEN = 3

STATUS_IDLE = (0, 0, 0, IDLE)


@dataclass(frozen=True)
class TreeConfig:
    """Structural parameters: K-ary internal nodes, D-slot leaves, sparsity S.
    Each is exactly `int`, as keys are.

    order          max children per internal node (K), >= 3 and >= 2S - 1
    leaf_capacity  slots per leaf (D), >= 4
    min_size       sparsity threshold (S): a leaf at <= S live keys after a
                   remove, or an internal node under S children, gets
                   merged or redistributed; 2 <= S <= D/2

    K >= 2S - 1, or internal reshapes never settle: a split of K + 1
    children leaves a half of floor((K + 1) / 2) children, which is under
    S exactly when K <= 2S - 2, and redistributing that half with its
    sibling (together over K children) rebuilds the same halves, so a
    descent triggers the same rebalance forever. At K >= 2S - 1 both
    halves of a split or redistribute hold at least S children.
    """

    order: int = 32
    leaf_capacity: int = 32
    min_size: int = 8

    def __post_init__(self):
        for name in ("order", "leaf_capacity", "min_size"):
            _exact_int(name, getattr(self, name))
        if self.order < 3:
            raise ValueError(f"order must be >= 3: {self.order}")
        if self.leaf_capacity < 4:
            raise ValueError(f"leaf_capacity must be >= 4: {self.leaf_capacity}")
        if not 2 <= self.min_size <= self.leaf_capacity // 2:
            raise ValueError(
                f"min_size must be in [2, leaf_capacity/2]: {self.min_size}"
            )
        if self.order < 2 * self.min_size - 1:
            raise ValueError(f"order must be >= 2*min_size - 1: {self.order}")


class LeafNode:
    __slots__ = ("slots",)

    def __init__(self, capacity: int, words=()):
        slots = list(words)
        if len(slots) > capacity:
            raise ValueError(f"{len(slots)} words for {capacity} slots")
        slots += [EMPTY] * (capacity - len(slots))
        self.slots = slots

    def __repr__(self):
        return f"<LeafNode {self.slots}>"


class InternalNode:
    __slots__ = ("separators", "children", "status")

    def __init__(self, children, separators=()):
        assert len(separators) == len(children) - 1
        self.separators = tuple(separators)
        self.children = list(children)
        self.status = [STATUS_IDLE]

    def __repr__(self):
        return f"<InternalNode seps={self.separators} n={len(self.children)}>"


# node_search(separators, key): index of the child covering `key`. Equal
# keys go left: the child at index j holds keys in
# (separators[j-1], separators[j]], which is exactly bisect_left.
node_search = bisect_left


def new_tree_root(config: TreeConfig) -> InternalNode:
    """Permanent root -> one internal child -> one empty leaf.

    The root is never replaced or frozen; height changes swing the root's
    single child link. The child starts as an internal node so every leaf
    always has both a parent and a grandparent.
    """
    leaf = LeafNode(config.leaf_capacity)
    inner = InternalNode([leaf])
    return InternalNode([inner])
