"""The package surface: every public name, with the numeric ones
imported on first access."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import qorder
from qorder import errors, quadrature, verification

HOMES = ("scalars", "exponents", "operators", "parser", "ordering", "errors",
         "bessel", "coordinate", "quadrature", "verification")


def test_every_public_name_is_its_home_modules_object():
    homes = [importlib.import_module(f"qorder.{m}") for m in HOMES]
    for name in qorder.__all__:
        owners = [m for m in homes if name in vars(m)]
        assert owners, name
        assert all(getattr(qorder, name) is vars(m)[name] for m in owners), \
            name


def test_readme_names_the_public_surface():
    """The README's Python API paragraph names every public name, and
    none of the names that were dropped from it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [n for n in qorder.__all__ if f"`{n}`" not in readme] == []
    for gone in ("bessel_first_zero", "reconstruction_first_zero",
                 "fourier_reconstruct"):
        assert f"`{gone}`" not in readme, gone


def test_dir_lists_every_public_name():
    assert set(qorder.__all__) <= set(dir(qorder))


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qorder.no_such_name


def test_numeric_names_load_on_first_access():
    """In a fresh interpreter: the numeric name is cached in the module
    globals after its first access, and the quadrature loads its lobe
    kernel only then.  Every numeric layer is plain Python, so no numpy
    is loaded at any step."""
    code = ("import sys, qorder; "
            "assert 'bessel_j' not in vars(qorder); "
            "qorder.bessel_j; "
            "assert vars(qorder)['bessel_j'] is qorder.bessel.bessel_j; "
            "qorder.determine_bessel_order; "
            "assert 'qorder._kernels' not in sys.modules; "
            "qorder.sin_phase_integral; "
            "assert 'qorder._kernels' in sys.modules; "
            "qorder.fourier_reconstruct_detailed; "
            "assert 'numpy' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_submodule():
    """``import qorder`` loads none of its modules; a public name loads
    only its own, and each module of the table resolves as an attribute
    of the package."""
    code = ("import sys, qorder; "
            "loaded = lambda: {m for m in sys.modules if m.startswith('qorder.')}; "
            "assert not loaded(), loaded(); "
            "qorder.OrderingError; "
            "assert loaded() == {'qorder.errors', 'qorder._value'}, loaded(); "
            "assert qorder.parser.ParseError is qorder.errors.ParseError; "
            "assert 'qorder.ordering' not in sys.modules; "
            "assert qorder.coordinate.determine_bessel_order "
            "is qorder.determine_bessel_order; "
            "assert 'numpy' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("caught", [
    qorder.QuadratureError, quadrature.QuadratureError,
    verification.QuadratureError, errors.QuadratureError],
    ids=["qorder", "quadrature", "verification", "errors"])
def test_quadrature_error_is_caught_by_every_import_path(caught):
    tight = qorder.QuadratureSpec(max_subdivisions=10)
    try:
        quadrature.sin_phase_integral(1.0, 1.0, tight)
    except caught as err:
        assert err.lobes == 10
    else:
        pytest.fail("the lobe budget of 10 did not fail")
