"""Backward-compatible import path for the system builder.

The benchmark harness builds its store with
``from repro.engine.sharded import build_system``; the system is a
single partition, so the builder is :class:`MicroblogSystem` itself.
"""

from repro.engine.system import MicroblogSystem

__all__ = ["build_system"]

build_system = MicroblogSystem
