"""Unified work accounting for the exact deciders.

Before the governor existed every search counted its own thing —
``decide_rcdp`` counted valuations, ``decide_rcqp`` counted candidate
"units", the brute-force oracles counted extension combos — and each cap
had its own ad-hoc kwarg.  :class:`Budget` replaces them with one ledger:
every unit of search work is a *tick* of some *kind* (``"valuations"``,
``"candidate_sets"``, ``"units"``, ``"nodes"``, ``"words"``, ...), charged
through a single :meth:`charge` call.  A budget can cap the grand total,
individual kinds, or both; per-kind counters are always kept so partial
results can report exactly how far each phase of a search got.
"""

from __future__ import annotations

from repro.errors import ReproError

__all__ = ["Budget"]


class Budget:
    """A mutable ledger of search work with optional limits.

    Parameters
    ----------
    limit:
        Cap on the total ticks across all kinds; ``None`` means unlimited.
    **kind_limits:
        Optional per-kind caps, e.g. ``Budget(valuations=500)`` or
        ``Budget(limit=10_000, candidate_sets=100)``.

    A limit of ``n`` admits exactly ``n`` ticks: the charge that would
    make the count exceed ``n`` reports a breach (matching the historical
    ``examined > budget`` semantics of ``decide_rcdp``).
    """

    __slots__ = ("limit", "kind_limits", "spent", "_by_kind")

    def __init__(self, limit: int | None = None, **kind_limits: int) -> None:
        if limit is not None and limit < 0:
            raise ReproError(f"budget limit must be nonnegative, got {limit}")
        for kind, cap in kind_limits.items():
            if cap < 0:
                raise ReproError(
                    f"budget limit for {kind!r} must be nonnegative, "
                    f"got {cap}")
        self.limit = limit
        self.kind_limits = dict(kind_limits)
        self.spent = 0
        self._by_kind: dict[str, int] = {}

    def charge(self, kind: str = "work", amount: int = 1) -> str | None:
        """Record *amount* ticks of *kind*; return the breached limit name.

        Returns ``None`` while within budget, ``"total"`` when the global
        limit is exceeded, or the kind name when a per-kind limit is.  The
        ledger keeps counting after a breach, so repeated charges keep
        reporting it — exhaustion is sticky.
        """
        self.spent += amount
        count = self._by_kind.get(kind, 0) + amount
        self._by_kind[kind] = count
        if self.limit is not None and self.spent > self.limit:
            return "total"
        cap = self.kind_limits.get(kind)
        if cap is not None and count > cap:
            return kind
        return None

    def spent_for(self, kind: str) -> int:
        """Ticks charged so far under *kind*."""
        return self._by_kind.get(kind, 0)

    @property
    def exhausted(self) -> bool:
        """True once any limit has been breached."""
        if self.limit is not None and self.spent > self.limit:
            return True
        return any(self._by_kind.get(kind, 0) > cap
                   for kind, cap in self.kind_limits.items())

    def admits(self, kind: str, amount: int) -> bool:
        """Whether *amount* more ticks of *kind* stay within every
        limit."""
        if self.limit is not None and self.spent + amount > self.limit:
            return False
        cap = self.kind_limits.get(kind)
        return cap is None or self.spent_for(kind) + amount <= cap

    @property
    def remaining(self) -> int | None:
        """Ticks left under the total limit (``None`` when unlimited)."""
        if self.limit is None:
            return None
        return max(0, self.limit - self.spent)

    def snapshot(self) -> dict[str, int]:
        """Per-kind counters, for statistics and logging."""
        return dict(self._by_kind)

    def __repr__(self) -> str:
        total = "∞" if self.limit is None else str(self.limit)
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(
            self._by_kind.items()))
        return f"Budget[{self.spent}/{total}{'; ' + kinds if kinds else ''}]"
