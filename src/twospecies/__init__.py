"""Simulation and numerics for a two-species walk system with rank-based
color exchange: microscopic event-driven runs, an order-and-coupling
calculus, deterministic barrier schemes, and a free-boundary reference
solution with Monte Carlo validation."""

__version__ = "0.1.0"
