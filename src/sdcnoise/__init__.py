"""Noise-based disclosure control for static census-like count outputs; import names from its modules."""

__version__ = "0.1.0"
