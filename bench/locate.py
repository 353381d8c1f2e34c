"""Where the package under test lives: ``src/`` of the checkout holding ``bench/``.

Imports nothing beyond what every interpreter has loaded at start-up, so
the set-up probe can import it before its clock starts at no cost.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def package_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "minimaxreg", "__init__.py"))


def import_package():
    """Import ``minimaxreg`` from this checkout's ``src/``, never from elsewhere."""
    if not package_present():
        raise SystemExit(f"minimaxreg sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import minimaxreg

    if not os.path.abspath(minimaxreg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported minimaxreg from {minimaxreg.__file__}, not from {SRC}")
    return minimaxreg
