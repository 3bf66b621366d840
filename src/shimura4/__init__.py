"""Exact verification toolkit for two genus-4 curve families.

Subpackages of interest:

- multipoly / numberfield: the exact computation core
- intfactor: the primality test of the CM-table checks and the
  factorization strings of the tables and reports
- quaternion: quaternion algebras over real cyclotomic fields, the real
  places where they split, and the (2, 3, n) rotation triples
- trianglestacks: triangle group data, degrees, and disk tessellations
- families: the two one-parameter families, their discriminant and the
  t = 1 fiber of the first
- reductions: the semistable reduction charts of both families, run as
  frozen plans, and the differential bookkeeping read off them
- hypergeom: local exponents and eigenvector line counts for the associated
  cyclic covers
- cli / report: the `verify` command line tool and its JSON report
- suites: one module per suite of `verify`, with its checks and frozen
  expected values, imported only when that suite runs
- record: the immutable base class of every record type above
"""

__version__ = "0.1.0"

# the deepest tessellation: `verify --depth` and `trianglestacks.tessellate`
# refuse more, and suites.triangle.TILE_COUNTS freezes the counts through it
MAX_DEPTH = 12
