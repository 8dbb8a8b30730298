"""Stateful register arrays, the on-switch memory of a P4 pipeline.

LarkSwitch and AggSwitch keep all running statistics (per-class counts,
sums, minima, maxima) in register arrays.  Tofino registers live in SRAM
attached to a pipeline stage; capacity is scarce, which is why the paper
(section 6) frames a trade-off between the number of supported
applications and per-application offload depth.  We model that scarcity
with an explicit SRAM budget on the :class:`RegisterFile`.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["RegisterArray", "RegisterFile", "SramExhaustedError"]


class SramExhaustedError(RuntimeError):
    """Raised when allocating registers beyond the stage SRAM budget."""


class RegisterArray:
    """A fixed-size array of fixed-width unsigned integer cells."""

    def __init__(self, name: str, size: int, width: int = 32):
        if size <= 0:
            raise ValueError("register array size must be positive")
        if width <= 0:
            raise ValueError("register width must be positive")
        self.name = name
        self.size = size
        self.width = width
        self.mask = (1 << width) - 1
        self._cells: List[int] = [0] * size

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(
                "register %s index %d out of range [0, %d)"
                % (self.name, index, self.size)
            )

    def read(self, index: int) -> int:
        self._check_index(index)
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        self._check_index(index)
        self._cells[index] = value & self.mask

    def add(self, index: int, delta: int = 1) -> int:
        """Read-modify-write increment (the single-stage RMW a Tofino
        register supports); returns the new value, wrapping at width."""
        self._check_index(index)
        self._cells[index] = (self._cells[index] + delta) & self.mask
        return self._cells[index]

    def update_min(self, index: int, value: int) -> int:
        self._check_index(index)
        current = self._cells[index]
        self._cells[index] = min(current, value & self.mask)
        return self._cells[index]

    def update_max(self, index: int, value: int) -> int:
        self._check_index(index)
        current = self._cells[index]
        self._cells[index] = max(current, value & self.mask)
        return self._cells[index]

    # -- columnar scatter ops ------------------------------------------
    #
    # The vectorized data plane folds whole batches into a register
    # array at once.  Each bulk op takes a full-length vector (numpy
    # array or list) and is bit-identical to a sequence of scalar RMWs:
    # additions are associative modulo the power-of-two width mask, and
    # min/max are idempotent, so fold order cannot be observed.

    def add_vector(self, deltas) -> None:
        """Cell-wise ``add``: ``deltas`` has one entry per cell (zero
        entries are no-ops)."""
        if len(deltas) != self.size:
            raise ValueError(
                "register %s add_vector needs %d entries, got %d"
                % (self.name, self.size, len(deltas))
            )
        cells = self._cells
        mask = self.mask
        for index, delta in enumerate(deltas):
            if delta:
                cells[index] = (cells[index] + int(delta)) & mask

    def min_vector(self, values) -> None:
        """Cell-wise ``update_min``; entries equal to the register's
        all-ones mask are identity elements (no-ops)."""
        if len(values) != self.size:
            raise ValueError(
                "register %s min_vector needs %d entries, got %d"
                % (self.name, self.size, len(values))
            )
        cells = self._cells
        mask = self.mask
        for index, value in enumerate(values):
            value = int(value) & mask
            if value < cells[index]:
                cells[index] = value

    def max_vector(self, values) -> None:
        """Cell-wise ``update_max``; zero entries are identity
        elements (no-ops)."""
        if len(values) != self.size:
            raise ValueError(
                "register %s max_vector needs %d entries, got %d"
                % (self.name, self.size, len(values))
            )
        cells = self._cells
        mask = self.mask
        for index, value in enumerate(values):
            value = int(value) & mask
            if value > cells[index]:
                cells[index] = value

    def fill(self, value: int) -> None:
        """Control-plane bulk reset (e.g. at period boundaries)."""
        value &= self.mask
        for i in range(self.size):
            self._cells[i] = value

    def load(self, values) -> None:
        """Control-plane bulk overwrite of the whole array: equivalent
        to ``write(i, values[i])`` for every cell, but in one pass
        (vectorized when numpy is on).  This is the restore half of
        :meth:`snapshot` — at checkpoint-recovery sizes (a 1M-user
        Bloom filter is ~9.6M cells) the per-cell ``write`` loop walks
        millions of bounds checks that a single masked assignment
        replaces."""
        if len(values) != self.size:
            raise ValueError(
                "register %s load needs %d entries, got %d"
                % (self.name, self.size, len(values))
            )
        from repro.switch.columns import get_numpy

        np = get_numpy()
        mask = self.mask
        if np is not None:
            self._cells = (
                np.asarray(values, dtype=np.int64) & mask
            ).tolist()
        else:
            self._cells = [int(v) & mask for v in values]

    def reset(self) -> None:
        self.fill(0)

    def snapshot(self) -> List[int]:
        """Control-plane read of the whole array (used when a periodical
        forwarding window closes)."""
        return list(self._cells)

    @property
    def bits(self) -> int:
        return self.size * self.width


class RegisterFile:
    """All register arrays on one switch, under a total SRAM budget.

    The default budget (~10 Mbit) is in the ballpark of per-stage SRAM
    available to user registers on a Tofino.
    """

    def __init__(self, sram_budget_bits: int = 10 * 1024 * 1024):
        self.sram_budget_bits = sram_budget_bits
        self._arrays: Dict[str, RegisterArray] = {}

    @property
    def used_bits(self) -> int:
        return sum(a.bits for a in self._arrays.values())

    @property
    def free_bits(self) -> int:
        return self.sram_budget_bits - self.used_bits

    def allocate(self, name: str, size: int, width: int = 32) -> RegisterArray:
        if name in self._arrays:
            raise ValueError("register array %r already allocated" % name)
        needed = size * width
        if needed > self.free_bits:
            raise SramExhaustedError(
                "allocating %r needs %d bits but only %d remain"
                % (name, needed, self.free_bits)
            )
        array = RegisterArray(name, size, width)
        self._arrays[name] = array
        return array

    def get(self, name: str) -> RegisterArray:
        if name not in self._arrays:
            raise KeyError("no register array named %r" % name)
        return self._arrays[name]

    def free(self, name: str) -> None:
        """Release an array (controller revoking an application)."""
        self._arrays.pop(name, None)

    def names(self) -> List[str]:
        return sorted(self._arrays)
