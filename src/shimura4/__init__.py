"""Exact verification toolkit for two genus-4 curve families.

Subpackages of interest:

- multipoly / numberfield / intfactor: the exact computation core
- quaternion: quaternion algebras over real cyclotomic fields, the real
  places where they split, and the (2, 3, n) rotation triples
- trianglestacks: triangle group data, degrees, and disk tessellations
- families: the two one-parameter families, their discriminants, semistable
  reduction charts, and differential bookkeeping
- hypergeom: local exponents and eigenvector line counts for the associated
  cyclic covers
- cli / report: the `verify` command line tool and its JSON report
- suites: one module per suite of `verify`, with its checks and frozen
  expected values, imported only when that suite runs
- record: the immutable base class of every record type above
"""

__version__ = "0.1.0"
