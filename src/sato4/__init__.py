"""Exact tools for a mod-4 sliceness obstruction of 2-component links.

Submodules:

- ``diagram``: PD-code link diagrams, signs found by walking strands,
  smoothing pairs, linking numbers, crossing switches.
- ``braids``: braid-word closures as PD diagrams.
- ``conway``: Conway polynomial by the Seifert determinant; its single
  coefficients by a smoothing sum; integer beta oracle.
- ``seifert``: Seifert matrices on the diagram's own Seifert surface;
  determinant route to the Conway polynomial.
- ``rewrites``: Reidemeister moves as PD-level surgery.
- ``movies``: validated move scripts ending at the 2-component unlink,
  self-intersection records, phi and the integer engine invariant.
- ``search``: best-effort search for unlinking scripts.
- ``bundle``: glued 4-manifold models, Pontryagin squares and gluing
  reports; w2 on each torus class is the record's lambda mod 2.
- ``corpus``: fixture corpus loading and sign calibration.
- ``cli``: the ``sato4`` command line front end.

All arithmetic is exact; no floating point is used anywhere.
"""

from .diagram import Crossing, LinkDiagram, parse_pd

__all__ = ["Crossing", "LinkDiagram", "parse_pd"]

__version__ = "0.1.0"
