"""The package's public names are exactly its __all__: a name retired from
one of the two lists, or added to one only, fails here."""
import types

import dqdsim


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from dqdsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dqdsim.__all__)


def test_every_name_in_all_resolves():
    assert len(set(dqdsim.__all__)) == len(dqdsim.__all__)
    for name in dqdsim.__all__:  # the lazy quadrature names included
        getattr(dqdsim, name)
    assert set(dqdsim._QUADRATURE_NAMES) <= set(dqdsim.__all__)


def test_every_public_attribute_is_in_all():
    public = {name for name, value in vars(dqdsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(dqdsim.__all__)


def test_retired_names_are_gone():
    assert not hasattr(dqdsim, "unwrap")
    assert not hasattr(dqdsim.hamiltonian, "unwrap")
    assert not hasattr(dqdsim.noise, "_entries")
    assert not hasattr(dqdsim, "exchange_J")
    assert not hasattr(dqdsim.hamiltonian, "exchange_J")
    assert not hasattr(dqdsim.cli, "build_parser")
    assert not hasattr(dqdsim.cli, "_subparser")
    assert not hasattr(dqdsim, "jacobi_eigh")
    assert "eigenvectors" not in dqdsim.hamiltonian.SpectrumResult._fields
