"""Exact focal-divisor analysis for varieties with degenerate Gauss
maps, over word-size prime fields.

The layers build bottom-up: ``fieldcore`` (F_p and dual-number linear
algebra), ``mpoly`` (sparse polynomials and their sum, det and Pf programs),
``varieties`` (rank loci and the explicit families), ``gaussmap``
(tangent frames and Gauss fibres), ``focal`` (first-order charts,
characteristic matrices, focal profiles and checks), ``cli`` (the
experiment runner).
"""

__version__ = "0.1.0"
