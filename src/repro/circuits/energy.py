"""Energy accounting.

Every substrate reports its work into an :class:`EnergyLedger` -- a named
multiset of (operation, count, energy) entries.  Experiment drivers merge
ledgers and print comparison tables; nothing in the package computes energy
as a side effect you cannot audit.

Ledgers are *cumulative* by design (a macro's ledger is its lifetime
odometer).  Callers that need strictly per-call figures scope a region:
:meth:`EnergyLedger.begin_scope` attaches a fresh child that receives a
copy of every entry recorded until :meth:`EnergyLedger.end_scope`.  The
child accumulates from zero, so two identical scoped regions yield
bit-identical energies (no floating-point residue from differencing
large cumulative totals), and shared ledgers are never cleared between
calls.  The particle-filter localizer scopes each ``run()`` this way.
The CIM MC-Dropout engine evaluates a whole wave of requests at once,
so it charges one :class:`EnergyTape` per request and layer instead and
replays the tapes into the macros' odometers in request order.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EnergyLedger:
    """Accumulates operation counts and their energy.

    Attributes:
        label: name shown in reports.
    """

    label: str = "ledger"
    _counts: dict[str, int] = field(default_factory=dict)
    _energies: dict[str, float] = field(default_factory=dict)
    _scopes: list["EnergyLedger"] = field(default_factory=list, repr=False)

    def _apply(self, operation: str, count: int, energy_j: float) -> None:
        self._counts[operation] = self._counts.get(operation, 0) + count
        self._energies[operation] = self._energies.get(operation, 0.0) + energy_j
        for scope in self._scopes:
            scope._apply(operation, count, energy_j)

    def add(self, operation: str, count: int, energy_per_op_j: float) -> None:
        """Record ``count`` occurrences of ``operation``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if energy_per_op_j < 0:
            raise ValueError("energy must be non-negative")
        self._apply(operation, int(count), count * energy_per_op_j)

    def add_many(
        self, operation: str, counts: list[int], energy_per_op_j: float
    ) -> None:
        """Record one :meth:`add` per entry of ``counts``, in order.

        The per-call energies ``count * energy_per_op_j`` are accumulated
        one float addition at a time, into this ledger and into every
        open scope, exactly as the sequence of :meth:`add` calls would.
        A single ``add(operation, sum(counts), ...)`` is not bit-equal to
        that (one product of the sum rounds differently from a running
        sum of products), so batched paths that stand in for per-call
        loops account through this.
        """
        counts = [int(count) for count in counts]
        if not counts:
            return
        if min(counts) < 0:
            raise ValueError("count must be non-negative")
        if energy_per_op_j < 0:
            raise ValueError("energy must be non-negative")
        self._apply_many(
            operation, counts, [count * energy_per_op_j for count in counts]
        )

    def _apply_many(
        self, operation: str, counts: list[int], energies: list[float]
    ) -> None:
        total = self._energies.get(operation, 0.0)
        for energy_j in energies:
            total += energy_j
        self._counts[operation] = self._counts.get(operation, 0) + sum(counts)
        self._energies[operation] = total
        for scope in self._scopes:
            scope._apply_many(operation, counts, energies)

    def add_charges(self, charges: dict[str, tuple[list[int], list[float]]]) -> None:
        """Record runs of entries owed per operation, one run each.

        ``charges`` maps an operation to its ``(counts, energies)`` entries
        in the order they were incurred, with the operations in the order
        they first appear.  Operations accumulate independently, so one
        :meth:`_apply_many` per operation makes the same float additions,
        and the same first insertions, as the interleaved sequence of
        single entries it stands for.
        """
        for operation, (counts, energies) in charges.items():
            if counts:
                self._apply_many(operation, counts, energies)

    def add_energy(self, operation: str, total_energy_j: float, count: int = 1) -> None:
        """Record a pre-totalled energy contribution."""
        if total_energy_j < 0:
            raise ValueError("energy must be non-negative")
        self._apply(operation, int(count), total_energy_j)

    def begin_scope(self, label: str | None = None) -> "EnergyLedger":
        """Attach and return a child ledger mirroring entries from now on.

        The child starts from zero and receives every subsequent entry
        (adds and merges) until :meth:`end_scope`, giving exact per-scope
        totals.  Scopes nest; each is independent.
        """
        child = EnergyLedger(label=label if label is not None else self.label)
        self._scopes.append(child)
        return child

    def end_scope(self, child: "EnergyLedger") -> "EnergyLedger":
        """Detach a scope opened with :meth:`begin_scope`; returns it."""
        try:
            self._scopes.remove(child)
        except ValueError:
            raise ValueError("ledger scope is not active") from None
        return child

    @property
    def operations(self) -> list[str]:
        return sorted(self._counts)

    def count(self, operation: str) -> int:
        return self._counts.get(operation, 0)

    def energy(self, operation: str) -> float:
        return self._energies.get(operation, 0.0)

    def total_count(self) -> int:
        return sum(self._counts.values())

    def total_energy_j(self) -> float:
        return sum(self._energies.values())

    def merge(self, other: "EnergyLedger") -> "EnergyLedger":
        """Fold another ledger's entries into this one (returns self)."""
        for operation in other.operations:
            self._apply(operation, other.count(operation), other.energy(operation))
        return self


@dataclass
class EnergyTape(EnergyLedger):
    """A ledger that also keeps its entries, in order, for :meth:`replay`.

    Batched paths that evaluate many calls' work out of call order charge
    one tape per call, then replay the tapes into the shared ledger in
    call order: the shared ledger (and its open scopes) then makes the
    very float additions the calls would have made one by one, and each
    tape holds exactly what a scope around its call would have.
    """

    _entries: list = field(default_factory=list, repr=False)

    def _apply(self, operation: str, count: int, energy_j: float) -> None:
        self._entries.append((operation, [count], [energy_j]))
        super()._apply(operation, count, energy_j)

    def _apply_many(
        self, operation: str, counts: list[int], energies: list[float]
    ) -> None:
        self._entries.append((operation, counts, energies))
        super()._apply_many(operation, counts, energies)

    def replay(self, ledger: EnergyLedger) -> None:
        """Apply every recorded entry to ``ledger``, in recording order."""
        for operation, counts, energies in self._entries:
            ledger._apply_many(operation, counts, energies)


def format_energy(energy_j: float) -> str:
    """Human-readable energy string (fJ / pJ / nJ / uJ / mJ / J)."""
    magnitude = abs(energy_j)
    for scale, unit in ((1e-15, "fJ"), (1e-12, "pJ"), (1e-9, "nJ"), (1e-6, "uJ"), (1e-3, "mJ")):
        if magnitude < scale * 1e3:
            return f"{energy_j / scale:.2f} {unit}"
    return f"{energy_j:.3f} J"
