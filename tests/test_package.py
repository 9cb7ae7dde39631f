"""Properties of the package as a whole: every cache table is bounded, and
the package imports with the standard library alone."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import starshuffle

SRC = str(Path(starshuffle.__file__).resolve().parents[1])


def _modules():
    yield starshuffle
    for info in pkgutil.walk_packages(starshuffle.__path__, "starshuffle."):
        yield importlib.import_module(info.name)


def test_every_lru_cache_table_is_bounded():
    tables = {}
    for module in _modules():
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info") and not isinstance(obj, type)
                    and obj.__module__ == module.__name__):
                tables[f"{module.__name__}.{name}"] = obj
    # the tables that perfbench reads and the block table of exact sums
    # are among those found
    for name in ("shuffle_core._shuffle_words", "shuffle_core._stuffle_words",
                 "polylog.integrate._J", "polylog.integrate._K", "polylog.integrate._A",
                 "polylog.integrate._P", "polylog.symfun._reduce_trailing_x0",
                 "polylog.series._blocks"):
        assert "starshuffle." + name in tables, name
    for name, fn in tables.items():
        assert fn.cache_info().maxsize is not None, name


def test_the_package_imports_with_the_standard_library_alone():
    # -I ignores PYTHONPATH and the user site, -S skips site-packages, so
    # an import of a third-party module fails here
    code = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import starshuffle, starshuffle.cli, starshuffle.polylog\n"
        "for info in pkgutil.iter_modules(starshuffle.polylog.__path__):\n"
        "    importlib.import_module('starshuffle.polylog.' + info.name)\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
