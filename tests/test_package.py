"""The package's import surface, and its commands without scipy, checked in
fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

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


# blocks every scipy import in the child, as a host without scipy would
NO_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")


sys.meta_path.insert(0, NoScipy())
"""


def test_commands_run_without_scipy_warnings_as_errors(tmp_path):
    # each command as the console script runs it, in a fresh interpreter
    # that cannot import scipy and turns every warning into an error:
    # reproduce, then a 20k-event generate -> analyze -> unfold -> fit chain
    env = dict(os.environ, PYTHONWARNINGS="error",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(code, *args):
        return subprocess.run([sys.executable, "-c", NO_SCIPY + code, *args],
                              env=env, capture_output=True, text=True,
                              timeout=120, cwd=tmp_path)

    blocked = run("import scipy")
    assert "No module named 'scipy'" in blocked.stderr
    cfg = tmp_path / "run.cfg"
    for args in [["reproduce"],
                 ["init-config", "--seed", "3", "--out", str(cfg)],
                 ["generate", "--config", str(cfg), "--out", "events.csv"],
                 ["analyze", "--config", str(cfg), "events.csv",
                  "--out", "spectrum.csv"],
                 ["unfold", "--config", str(cfg), "spectrum.counts.csv",
                  "--out", "unfolded.csv"],
                 ["fit", "unfolded.csv", "--config", str(cfg),
                  "--models", "QM,SD,PS,DECOHERED", "--out", "fit.txt"]]:
        p = run("from flavourasym.cli import main; sys.exit(main())", *args)
        assert (p.returncode, p.stderr) == (0, ""), args
        if args[0] == "init-config":
            text = cfg.read_text()
            assert "n_signal = 7815\n" in text
            cfg.write_text(text.replace("n_signal = 7815\n",
                                        "n_signal = 20000\n"))
    assert "significance matrix" in (tmp_path / "fit.txt").read_text()
