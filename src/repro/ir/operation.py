"""Core IR structure: operations, blocks, and regions.

This is the region-based subset of MLIR that the paper's dialects use.
An :class:`Operation` carries a dialect-qualified name, an attribute
dictionary, and a list of :class:`Region` s; each region holds
:class:`Block` s which hold operations.  The regex and cicero dialects are
attribute/region dialects (no SSA values are needed), which keeps the
framework small while preserving the multi-level structure the paper's
compilation flow relies on.

Concrete dialect operations subclass :class:`Operation` and declare:

* ``OP_NAME`` — the fully qualified name, e.g. ``"regex.match_char"``.
* ``verify_op`` — structural invariants (arity of regions, attribute
  types), raising :class:`~repro.ir.diagnostics.VerificationError`.
* optional accessors for their attributes.

Ownership runs one way, as in MLIR: an op owns its regions, a region its
blocks, a block its ops — strong references, downward only.  The upward
links (:attr:`Operation.parent_block`, :attr:`Block.parent_region`,
:attr:`Region.parent_op`) are weak, so a tree holds no reference cycle
and a module nobody refers to any more is freed by reference counting
alone, never by the cyclic garbage collector.  The links are read-only:
only the containers below set them, as they adopt or drop a child.  An op
whose block has been freed reads as detached.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence
from weakref import ref as _ref

from .attributes import Attribute, wrap_attribute
from .diagnostics import IRError, Location, UNKNOWN_LOCATION, VerificationError


class Region:
    """An ordered list of blocks owned by an operation."""

    __slots__ = ("_parent_op", "blocks", "__weakref__")
    _parent_op: Optional[_ref[Operation]]

    def __init__(self, parent_op: Optional["Operation"] = None):
        self._parent_op = None if parent_op is None else _ref(parent_op)
        self.blocks: List[Block] = []

    @property
    def parent_op(self) -> Optional["Operation"]:
        link = self._parent_op
        return None if link is None else link()

    def add_block(self, block: Optional["Block"] = None) -> "Block":
        block = block if block is not None else Block()
        if block.parent_region is not None:
            raise IRError("block already belongs to a region")
        block._parent_region = _ref(self)
        self.blocks.append(block)
        return block

    @property
    def entry_block(self) -> "Block":
        if not self.blocks:
            raise IRError("region has no blocks")
        return self.blocks[0]

    def is_empty(self) -> bool:
        return all(not block.operations for block in self.blocks)

    def ops(self) -> Iterator["Operation"]:
        """Iterate over all operations directly inside this region."""
        for block in self.blocks:
            yield from block.operations

    def clone(self) -> "Region":
        clone = Region()
        for block in self.blocks:
            clone.add_block(block.clone())
        return clone

    def __iter__(self) -> Iterator["Block"]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


class Block:
    """An ordered list of operations inside a region."""

    __slots__ = ("_parent_region", "operations", "__weakref__")
    _parent_region: Optional[_ref[Region]]

    def __init__(self):
        self._parent_region = None
        self.operations: List[Operation] = []

    @property
    def parent_region(self) -> Optional[Region]:
        link = self._parent_region
        return None if link is None else link()

    def append(self, op: "Operation") -> "Operation":
        held = op._parent_block
        if held is not None and held() is not None:
            raise IRError("operation already belongs to a block")
        op._parent_block = _ref(self)
        self.operations.append(op)
        return op

    def insert(self, index: int, op: "Operation") -> "Operation":
        held = op._parent_block
        if held is not None and held() is not None:
            raise IRError("operation already belongs to a block")
        op._parent_block = _ref(self)
        self.operations.insert(index, op)
        return op

    def remove(self, op: "Operation") -> None:
        self.operations.remove(op)
        op._parent_block = None

    def replace_operations(self, operations: List["Operation"]) -> None:
        """Make ``operations`` the block's content in one linear step: how
        a pass drops or substitutes many ops (``erase`` and ``replace_with``
        each scan the block).  Ops left out end up detached."""
        for op in self.operations:
            op._parent_block = None
        link = _ref(self)
        for op in operations:
            held = op._parent_block
            if held is not None and held() is not None:
                raise IRError("operation already belongs to a block")
            op._parent_block = link
        self.operations[:] = operations

    def index_of(self, op: "Operation") -> int:
        for index, candidate in enumerate(self.operations):
            if candidate is op:
                return index
        raise IRError("operation not found in block")

    def clone(self) -> "Block":
        clone = Block()
        for op in self.operations:
            clone.append(op.clone())
        return clone

    def __iter__(self) -> Iterator["Operation"]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)


def _region_of(op: "Operation") -> Region:
    """A new region of ``op`` holding one new, empty block."""
    region = Region.__new__(Region)
    region._parent_op = _ref(op)
    block = Block.__new__(Block)
    block._parent_region = _ref(region)
    block.operations = []
    region.blocks = [block]
    return region


class Operation:
    """A generic IR operation.

    Direct instantiation creates an *unregistered* op, which the printer
    and parser support for testing; dialect ops subclass this and set
    ``OP_NAME``.
    """

    OP_NAME: str = "builtin.unregistered"

    __slots__ = (
        "name", "attributes", "regions", "_parent_block", "location", "__weakref__",
    )
    _parent_block: Optional[_ref[Block]]

    def __init__(
        self,
        name: Optional[str] = None,
        attributes: Optional[Dict[str, object]] = None,
        num_regions: int = 0,
        location: Location = UNKNOWN_LOCATION,
    ):
        self.name = name if name is not None else type(self).OP_NAME
        self.attributes: Dict[str, Attribute] = {}
        if attributes:
            for key, value in attributes.items():
                # Fast path: most callers pass ready-made attributes.
                self.attributes[key] = (
                    value if isinstance(value, Attribute) else wrap_attribute(value)
                )
        self.regions: List[Region] = [_region_of(self) for _ in range(num_regions)]
        self._parent_block = None
        self.location = location

    def _init_slots(
        self,
        attributes: Dict[str, Attribute],
        location: Location = UNKNOWN_LOCATION,
        body: bool = False,
    ) -> None:
        """Fill every slot of a freshly built op: ``attributes`` ready-made,
        and with ``body`` one region holding one empty block.  Dialect
        constructors call this in place of the generic ``__init__``,
        which wraps values and builds any number of regions."""
        self.name = self.OP_NAME
        self.attributes = attributes
        self.regions = [_region_of(self)] if body else []
        self._parent_block = None
        self.location = location

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    @property
    def dialect_name(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def short_name(self) -> str:
        return self.name.split(".", 1)[-1]

    # ------------------------------------------------------------------
    # Attribute helpers
    # ------------------------------------------------------------------
    def set_attr(self, key: str, value) -> None:
        self.attributes[key] = wrap_attribute(value)

    def bool_attr(self, key: str, default: bool = False) -> bool:
        attr = self.attributes.get(key)
        return attr.value if attr is not None else default

    def int_attr(self, key: str, default: int = 0) -> int:
        attr = self.attributes.get(key)
        return attr.value if attr is not None else default

    # ------------------------------------------------------------------
    # Region helpers
    # ------------------------------------------------------------------
    def add_region(self) -> Region:
        region = _region_of(self)
        self.regions.append(region)
        return region

    def region(self, index: int = 0) -> Region:
        return self.regions[index]

    def body_ops(self, region_index: int = 0) -> List["Operation"]:
        """Operations of the entry block of the given region."""
        return self.regions[region_index].entry_block.operations

    # ------------------------------------------------------------------
    # Structural manipulation
    # ------------------------------------------------------------------
    @property
    def parent_block(self) -> Optional[Block]:
        link = self._parent_block
        return None if link is None else link()

    @property
    def parent_op(self) -> Optional["Operation"]:
        block = self.parent_block
        region = None if block is None else block.parent_region
        return None if region is None else region.parent_op

    def erase(self) -> None:
        """Detach this op from its parent block."""
        if self.parent_block is None:
            raise IRError("cannot erase a detached operation")
        self.parent_block.remove(self)

    def replace_with(self, *replacements: "Operation") -> None:
        """Replace this op in-place with ``replacements`` (may be empty)."""
        block = self.parent_block
        if block is None:
            raise IRError("cannot replace a detached operation")
        index = block.index_of(self)
        block.remove(self)
        for offset, new_op in enumerate(replacements):
            block.insert(index + offset, new_op)

    def move_before(self, other: "Operation") -> None:
        if other.parent_block is None:
            raise IRError("anchor operation is detached")
        if self.parent_block is not None:
            self.parent_block.remove(self)
        block = other.parent_block
        block.insert(block.index_of(other), self)

    def clone(self) -> "Operation":
        """Deep-copy this operation (registered class is preserved)."""
        clone = type(self).__new__(type(self))
        clone.name = self.name
        clone.attributes = dict(self.attributes)
        clone.regions = []
        clone._parent_block = None
        clone.location = self.location
        for region in self.regions:
            region_clone = region.clone()
            region_clone._parent_op = _ref(clone)
            clone.regions.append(region_clone)
        return clone

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def walk(self, callback: Optional[Callable[["Operation"], None]] = None):
        """Pre-order traversal.  Without a callback, returns an iterator.

        The iterator variant snapshots each block's op list so callers may
        erase the op they are visiting.
        """
        if callback is not None:
            for op in self.walk():
                callback(op)
            return None
        return self._walk_iter()

    def _walk_iter(self) -> Iterator["Operation"]:
        # One explicit stack, not a generator frame per nesting level.
        stack = [self]
        while stack:
            op = stack.pop()
            yield op
            for region in reversed(op.regions):
                for block in reversed(region.blocks):
                    stack.extend(reversed(block.operations))

    def walk_post_order(self) -> List["Operation"]:
        """Every op of the tree, children before parents.

        The list is a snapshot, so callers may erase or replace the ops
        they visit.
        """
        # Parents first with children right to left, then reversed.
        order = []
        stack = [self]
        while stack:
            op = stack.pop()
            order.append(op)
            for region in op.regions:
                for block in region.blocks:
                    stack.extend(block.operations)
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Verification and equivalence
    # ------------------------------------------------------------------
    def verify_op(self) -> None:
        """Per-op structural checks; overridden by dialect ops."""

    def verify(self) -> None:
        """Verify this op and everything nested inside it."""
        for op in self.walk():
            op.verify_op()

    def is_structurally_equal(self, other: "Operation") -> bool:
        """Deep structural equality (name, attributes, nested regions)."""
        if self.name != other.name or self.attributes != other.attributes:
            return False
        if len(self.regions) != len(other.regions):
            return False
        for mine, theirs in zip(self.regions, other.regions):
            if len(mine.blocks) != len(theirs.blocks):
                return False
            for my_block, their_block in zip(mine.blocks, theirs.blocks):
                if len(my_block) != len(their_block):
                    return False
                for my_op, their_op in zip(my_block, their_block):
                    if not my_op.is_structurally_equal(their_op):
                        return False
        return True

    def expect_num_regions(self, count: int) -> None:
        if len(self.regions) != count:
            raise VerificationError(
                f"'{self.name}' expects {count} region(s), has {len(self.regions)}",
                self,
            )

    def expect_attr(self, key: str, attr_type: type) -> None:
        attr = self.attributes.get(key)
        if not isinstance(attr, attr_type):
            raise VerificationError(
                f"'{self.name}' expects attribute '{key}' of type "
                f"{attr_type.__name__}, got {type(attr).__name__}",
                self,
            )

    def __str__(self) -> str:
        from .printer import print_op

        return print_op(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class ModuleOp(Operation):
    """Top-level container, one region with a single block."""

    OP_NAME = "builtin.module"

    def __init__(self, location: Location = UNKNOWN_LOCATION):
        super().__init__(num_regions=1, location=location)

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    def verify_op(self) -> None:
        self.expect_num_regions(1)
