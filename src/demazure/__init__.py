"""Exact symbolic computation in formal affine Demazure algebras.

The package is organized bottom-up:

* :mod:`demazure.rootdata` - root data, Weyl groups, words, Bruhat order;
* :mod:`demazure.formal` - formal group algebras (additive / multiplicative
  backends), localization, and symbolic denominator factors;
* :mod:`demazure.twisted` - the twisted group algebra, divided-difference
  operator families, basis changes, and Leibniz coefficients;
* :mod:`demazure.dual` - the dual module, structure constants by formula and
  by independent oracle, stable bases, and restriction matrices;
* :mod:`demazure.serialize` - canonical text/JSON forms;
* :mod:`demazure.cli` - the ``demazure`` command line tool.
"""

from .rootdata import RootDatum, WeylElement, build_root_datum

__all__ = ["RootDatum", "WeylElement", "build_root_datum"]

__version__ = "0.1.0"
