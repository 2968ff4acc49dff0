"""The simulation kernel tier.

The event kernel has one implementation: :class:`~repro.simulation.events.EventQueue`
plus the run loop of :class:`~repro.simulation.engine.Simulator`.
:func:`resolve_kernel` names it for environment reports.
"""

from __future__ import annotations


def resolve_kernel() -> str:
    """The event kernel tier every simulation runs on: always ``"pure"``."""

    return "pure"
