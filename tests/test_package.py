"""The package's import surface, checked in a fresh interpreter."""

import os
import subprocess
import sys

CHECK = """
import sys
import flavourasym
missing = [n for n in flavourasym.__all__ if not hasattr(flavourasym, n)]
assert not missing, f"names in __all__ that do not resolve: {missing}"
assert "scipy.integrate" not in sys.modules, "import pulled in scipy.integrate"
"""


def test_import_surface():
    # quadrature is a test oracle only, so importing the package must not
    # load scipy.integrate; every exported name must exist
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    p = subprocess.run([sys.executable, "-c", CHECK], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
