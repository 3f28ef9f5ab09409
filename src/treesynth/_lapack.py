"""The four LAPACK/BLAS routines of the package, bound from scipy's extensions.

Every tree-connectivity value is a reduced-Laplacian determinant, and the
package computes them with ``dpotrf``, ``dpotrs`` and ``dtrtri`` (LAPACK)
and ``dtrsm`` (BLAS). scipy exposes these f2py wrappers as
``scipy.linalg.lapack`` and ``scipy.linalg.blas``, but importing either
runs ``scipy/linalg/__init__.py`` first, which pulls in array_api_compat
and numpy.f2py. Measured in fresh processes (Python 3.11, scipy 1.17, one
BLAS thread, 2-vCPU VM), that package init is about 0.2 s and 23 MB in
every process that imports treesynth: ``import treesynth, treesynth.cli``
takes 0.12 s and 35 MB maxrss without it, 0.29-0.35 s and 58 MB with it,
and 0.2 s is about four certificates of a 300-pose graph at k = 51.

So this module loads the two extension modules, ``scipy.linalg._flapack``
and ``scipy.linalg._fblas``, from their files in scipy's ``linalg``
directory and binds the four routines from them: the same wrapper
objects ``scipy.linalg.lapack`` and ``scipy.linalg.blas`` expose, so the
results keep their bits. Only the light top-level ``scipy`` package is
imported. The interpreter records each extension in ``sys.modules`` under
its full name, as it does for any single-phase extension, and a later
``import scipy.linalg`` reuses them. It is the only module of the package
that names scipy; a scipy without these extensions raises ImportError
naming the missing one.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import scipy

_LINALG = os.path.join(os.path.dirname(scipy.__file__), "linalg")


def _extension(name: str):
    """The extension module ``name``, loaded from its file in scipy's linalg directory."""
    spec = importlib.machinery.PathFinder.find_spec(name, [_LINALG])
    if spec is None:
        raise ImportError(
            f"scipy {scipy.__version__} has no extension module {name} in {_LINALG}", name=name
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _extension("scipy.linalg._flapack")
_fblas = _extension("scipy.linalg._fblas")

dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dtrtri = _flapack.dtrtri
dtrsm = _fblas.dtrsm

__all__ = ["dpotrf", "dpotrs", "dtrtri", "dtrsm"]
