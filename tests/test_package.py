import importlib

import pytest

import madm

RETIRED = ("LangevinProposal", "make_proposal", "log_H", "bound_C",
           "quadrature_log_ratio")


def test_public_surface():
    # every exported name resolves; the one-proposal layer stays retired
    for name in madm.__all__:
        assert hasattr(madm, name), name
    for name in RETIRED:
        assert name not in madm.__all__
        assert not hasattr(madm, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("madm.proposal")
