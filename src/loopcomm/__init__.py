"""Certified non-commutativity checks for loop spaces of irreducible symmetric spaces."""

__version__ = "0.1.0"
