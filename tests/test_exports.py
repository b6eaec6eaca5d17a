"""The package's public names: each one resolves where it is exported."""

import importlib
import pkgutil
import subprocess
import sys

import irvpivot

MODULES = [
    importlib.import_module(f"irvpivot.{info.name}")
    for info in pkgutil.iter_modules(irvpivot.__path__)
]


def test_module_exports_resolve():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


def test_package_exports_come_from_module_exports():
    for name in irvpivot.__all__:
        assert hasattr(irvpivot, name), f"irvpivot.__all__ lists missing {name!r}"
        if name == "__version__":
            continue
        owners = [
            m for m in MODULES
            if name in getattr(m, "__all__", ()) and getattr(m, name) is getattr(irvpivot, name)
        ]
        assert owners, f"{name!r} is in no submodule's __all__"


def test_package_exports_are_the_module_exports():
    modules = [m for m in MODULES if hasattr(m, "__all__")]
    expected = sorted(name for m in modules for name in m.__all__) + ["__version__"]
    assert sorted(irvpivot.__all__) == sorted(expected)
    assert len(set(irvpivot.__all__)) == len(irvpivot.__all__), "duplicate export"


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about 0.9 s and 46 MB on import.  This process cannot
    # tell, because conftest.py imports it, so a fresh interpreter checks.
    code = "import sys, irvpivot; print('scipy.stats' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
