"""Exact character-theoretic verification toolkit for desk-scale groups."""

__version__ = "0.1.0"


class GalMcKayError(ValueError):
    """Base of every error raised for bad or out-of-scope input."""
