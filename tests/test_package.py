"""The package's import surface, checked in a fresh interpreter."""

import os
import subprocess
import sys

CHECK = """
import sys
import flavourasym
missing = [n for n in flavourasym.__all__ if not hasattr(flavourasym, n)]
assert not missing, f"names in __all__ that do not resolve: {missing}"
scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not scipy, f"import pulled in scipy: {scipy}"
"""


def test_import_surface():
    # scipy is a test oracle only (quadrature, and the minimizers the fits
    # port), so importing the package must load no scipy module; every
    # exported name must exist
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    p = subprocess.run([sys.executable, "-c", CHECK], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
