import os
import subprocess
import sys

import vtmigsim


def test_modules_load_only_the_standard_library_and_numpy():
    """numpy is the one declared dependency: importing every module in a fresh
    interpreter loads no other package, even one this host has installed. The
    package root re-exports nothing, so importing it alone loads no module."""
    script = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import vtmigsim\n"
        "print(sorted(name for name in sys.modules if name.startswith('vtmigsim.')))\n"
        "for m in pkgutil.iter_modules(vtmigsim.__path__):\n"
        "    importlib.import_module('vtmigsim.' + m.name)\n"
        "print(sorted({name.split('.')[0] for name in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'numpy', 'vtmigsim'}))\n"
    )
    src = os.path.dirname(os.path.dirname(vtmigsim.__file__))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout == "[]\n[]\n"
