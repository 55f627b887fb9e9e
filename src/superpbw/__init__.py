"""Exact-arithmetic PBW normalization and integral-basis verification for
universal enveloping algebras of map superalgebras g (x) A."""

__version__ = "0.1.0"
