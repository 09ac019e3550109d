"""The package's lazy exports: each name loads its submodule on first use."""

import importlib
import subprocess
import sys

import pytest

import decogate


@pytest.mark.parametrize("name", decogate.__all__)
def test_export_is_its_submodule_attribute(name):
    assert name in dir(decogate)
    module = importlib.import_module(f"decogate.{decogate._EXPORTS[name]}")
    assert getattr(decogate, name) is getattr(module, name)


def test_submodule_is_an_attribute_before_its_import():
    code = "import decogate; print(decogate.dynamics.__name__)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "decogate.dynamics"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        decogate.no_such_name
    assert not hasattr(decogate, "fidelity_three_bit")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from decogate import *", namespace)
    assert set(decogate.__all__) <= set(namespace)
    assert namespace["run_sweep"] is decogate.sweep.run_sweep
