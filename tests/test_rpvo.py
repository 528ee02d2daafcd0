"""Tests for the RPVO vertex block data structure."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.arch.address import Address, NULL_ADDRESS
from repro.graph.rpvo import Edge, EdgeSlot, INFINITY, VertexBlock
from repro.snapshot.format import pack_value, unpack_value


def slot(dst=1, vid=1, w=1):
    return EdgeSlot(dst_addr=Address(0, dst), dst_vid=vid, weight=w)


class TestEdge:
    def test_reversed(self):
        e = Edge(3, 7, weight=2)
        r = e.reversed()
        assert (r.src, r.dst, r.weight) == (7, 3, 2)

    def test_edges_are_hashable_and_frozen(self):
        assert len({Edge(0, 1), Edge(0, 1), Edge(1, 0)}) == 2
        with pytest.raises(Exception):
            Edge(0, 1).src = 5  # type: ignore[misc]


class TestAddress:
    def test_null_address(self):
        assert NULL_ADDRESS.is_null
        assert not Address(0, 0).is_null

    def test_ordering_and_hash(self):
        assert Address(0, 1) < Address(1, 0)
        assert len({Address(0, 1), Address(0, 1)}) == 1


VALUES = [
    pytest.param(Edge(3, 7, 2), Edge(3, 7, 5), ("src", "dst", "weight"),
                 id="Edge"),
    pytest.param(Address(2, 9), Address(9, 2), ("cc_id", "obj_id"),
                 id="Address"),
    pytest.param(EdgeSlot(Address(1, 4), 6, 3), EdgeSlot(Address(1, 5), 6, 3),
                 ("dst_addr", "dst_vid", "weight"), id="EdgeSlot"),
]


class TestValueTypes:
    """Edges, edge slots and addresses are immutable values: equal and
    hashed by their fields, whatever object carries them."""

    @pytest.mark.parametrize("value, other, fields", VALUES)
    def test_fields_cannot_be_assigned(self, value, other, fields):
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, 0)

    @pytest.mark.parametrize("value, other, fields", VALUES)
    def test_equality_and_hash_go_by_value(self, value, other, fields):
        items = tuple(getattr(value, field) for field in fields)
        twin = type(value)(*items)
        assert twin == value and twin is not value
        # The hash of the field tuple: hash-ordered sets iterate the same
        # whatever class carries the fields.
        assert hash(twin) == hash(value) == hash(items)
        assert value != other
        assert len({value, twin, other}) == 2

    @pytest.mark.parametrize("value, other, fields", VALUES)
    def test_pickle_and_snapshot_codec_round_trip(self, value, other,
                                                  fields):
        for copy in (pickle.loads(pickle.dumps(value)),
                     unpack_value(pack_value(value))):
            assert type(copy) is type(value) and copy == value

    def test_address_sorts_by_cell_then_object_and_reprs_as_cc_obj(self):
        addrs = [Address(1, 0), Address(0, 5), Address(1, -1), Address(0, 2)]
        assert sorted(addrs) == [Address(0, 2), Address(0, 5),
                                 Address(1, -1), Address(1, 0)]
        assert repr(Address(3, 14)) == "@3:14"
        assert repr(EdgeSlot(Address(3, 14), 2)) == \
            "EdgeSlot(dst_addr=@3:14, dst_vid=2, weight=1)"

    def test_defaults_and_reversed_edge(self):
        assert Edge(4, 5) == Edge(4, 5, 1)
        assert EdgeSlot(Address(0, 1), 2).weight == 1
        assert Edge(4, 5, 8).reversed() == Edge(5, 4, 8)
        assert Edge(4, 5, 8).reversed().reversed() == Edge(4, 5, 8)


class TestVertexBlock:
    def test_validation(self):
        with pytest.raises(ValueError):
            VertexBlock(0, capacity=0)
        with pytest.raises(ValueError):
            VertexBlock(0, capacity=2, ghost_slots=0)

    def test_has_room_until_capacity(self):
        block = VertexBlock(0, capacity=3)
        for i in range(3):
            assert block.has_room
            block.append_edge(slot(i, i))
        assert not block.has_room

    def test_append_beyond_capacity_raises(self):
        block = VertexBlock(0, capacity=1)
        block.append_edge(slot())
        with pytest.raises(OverflowError):
            block.append_edge(slot())

    def test_ghost_futures_start_null(self):
        block = VertexBlock(0, capacity=2, ghost_slots=3)
        assert len(block.ghosts) == 3
        assert all(f.is_null for f in block.ghosts)
        assert block.resolved_ghosts() == []

    def test_ghost_slot_for_is_deterministic_and_in_range(self):
        block = VertexBlock(0, capacity=2, ghost_slots=3)
        for vid in range(20):
            idx = block.ghost_slot_for(vid)
            assert 0 <= idx < 3
            assert idx == block.ghost_slot_for(vid)

    def test_state_snapshot_is_copied(self):
        state = {"level": 5}
        block = VertexBlock(0, capacity=2, state=state)
        state["level"] = 9
        assert block.get_state("level") == 5

    def test_state_helpers(self):
        block = VertexBlock(0, capacity=2)
        assert block.get_state("level", INFINITY) == INFINITY
        block.set_state("level", 3)
        assert block.get_state("level") == 3

    def test_words_scale_with_capacity(self):
        small = VertexBlock(0, capacity=4)
        big = VertexBlock(0, capacity=64)
        assert big.words() > small.words()

    def test_root_vs_ghost_flags(self):
        root = VertexBlock(1, capacity=2, is_root=True)
        ghost = VertexBlock(1, capacity=2, is_root=False, depth=2)
        assert root.is_root and root.depth == 0
        assert not ghost.is_root and ghost.depth == 2

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=64))
    def test_property_local_degree_never_exceeds_capacity(self, capacity, attempts):
        block = VertexBlock(0, capacity=capacity)
        inserted = 0
        for i in range(attempts):
            if block.has_room:
                block.append_edge(slot(i, i))
                inserted += 1
        assert block.degree_local == min(capacity, attempts) == inserted
