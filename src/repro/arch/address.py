"""Global addresses in the AM-CCA PGAS memory.

The chip's combined scratchpad memories are exposed as a partitioned global
address space (PGAS).  A global address names a single object living in the
memory of one compute cell: the pair ``(cc_id, obj_id)``.

Actions are always sent *to* an address ("work to data"): the network routes
the carrying message to ``cc_id`` and the action handler then operates on the
local object ``obj_id``.
"""

from __future__ import annotations

from typing import NamedTuple


class Address(NamedTuple):
    """A global address: object ``obj_id`` in compute cell ``cc_id``'s memory.

    Addresses are immutable, hashable and ordered by ``(cc_id, obj_id)`` so
    they can be used as dictionary keys, stored inside edges and compared
    in tests.  A named tuple, which builds faster and takes less memory
    than a frozen dataclass: every edge slot holds one.
    """

    cc_id: int
    obj_id: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"@{self.cc_id}:{self.obj_id}"

    @property
    def is_null(self) -> bool:
        """True for the distinguished null address (no object)."""
        return self.cc_id < 0


#: Distinguished "no object" address (analogous to a null pointer).
NULL_ADDRESS = Address(-1, -1)
