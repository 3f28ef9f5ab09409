"""treesynth._lapack binds scipy's LAPACK/BLAS wrappers without scipy.linalg's init."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: the test session has imported scipy.linalg.
FRESH = """
import sys
import treesynth, treesynth.cli
assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))

import numpy as np
from treesynth import _lapack

rng = np.random.default_rng(0)
a = rng.standard_normal((6, 6))
spd = a @ a.T + 6 * np.eye(6)
rhs = rng.standard_normal((6, 3))

def outputs(dpotrf, dpotrs, dtrtri, dtrsm):
    c, info = dpotrf(spd, lower=1, clean=1)
    assert info == 0
    x, info_s = dpotrs(c, rhs, lower=1)
    inv, info_i = dtrtri(c, lower=1)
    y = dtrsm(1.0, c, rhs, lower=1)
    return [c, x, inv, y, np.array([info, info_s, info_i])]

ours = outputs(_lapack.dpotrf, _lapack.dpotrs, _lapack.dtrtri, _lapack.dtrsm)

import scipy.linalg
from scipy.linalg import blas, lapack

assert scipy.linalg.cho_solve((ours[0], True), rhs).shape == (6, 3)
theirs = outputs(lapack.dpotrf, lapack.dpotrs, lapack.dtrtri, blas.dtrsm)
assert all(p.tobytes() == q.tobytes() for p, q in zip(ours, theirs))
assert _lapack.dpotrf is lapack.dpotrf and _lapack.dtrsm is blas.dtrsm
print("ok")
"""


def test_import_skips_scipy_linalg_and_routines_match_scipy_bit_for_bit():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", FRESH], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def test_missing_extension_raises_import_error_naming_it():
    from treesynth import _lapack

    with pytest.raises(ImportError, match="scipy.linalg._no_such_ext") as err:
        _lapack._extension("scipy.linalg._no_such_ext")
    assert err.value.name == "scipy.linalg._no_such_ext"


def test_only_the_lapack_module_names_scipy():
    src = ROOT / "src" / "treesynth"
    naming = sorted(p.name for p in src.glob("*.py") if "scipy" in p.read_text())
    assert naming == ["_lapack.py"]
