"""Textual specifiers for models, psi families, grids, and sets."""

import math

import numpy as np
import pytest

from glspace import (
    EmpiricalModel,
    SizeMismatchError,
    SpecParseError,
    cyclic_group,
    grid_from_spec,
    load_group_function,
    model_from_spec,
    psi_from_spec,
    set_from_spec,
)


def test_model_specs():
    assert model_from_spec("gaussian").label == "gaussian"
    assert model_from_spec(" rademacher ").label == "rademacher"
    m = model_from_spec("constant:5")
    assert m.lp_norm(3.0) == 5.0
    for bad in ("constant:abc", "lognormal", "empirical:/no/such/file"):
        with pytest.raises(SpecParseError):
            model_from_spec(bad)


def test_empirical_spec_reads_whitespace_separated_values(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("1.0 2.0\n-3.0\n")
    m = model_from_spec(f"empirical:{path}")
    assert m.lp_norm(1.0) == pytest.approx(2.0)


def test_psi_specs():
    psi = psi_from_spec("power_slowvary(r=2)")
    assert psi.description == "power_slowvary(r=2, delta=0)"
    assert psi_from_spec("power_slowvary(r=1, delta=0.5)").strictly_increasing
    nat = psi_from_spec("natural:gaussian")
    assert nat.description == "natural:gaussian"
    assert not psi_from_spec("sqrt_dip").strictly_increasing
    for bad in (
        "power_slowvary()",            # r is required
        "power_slowvary(r=0)",         # out of domain
        "power_slowvary(r=2, q=1)",    # unknown key
        "power_slowvary(r=2 delta=1)", # missing separator
        "natural:nosuchmodel",
        "linear",
    ):
        with pytest.raises(SpecParseError):
            psi_from_spec(bad)


def test_grid_specs():
    assert grid_from_spec("integers:M=10").M == 10
    q = grid_from_spec("grid:geometric:D=3:M=5")
    assert q.value_at(2) == 7.0
    for bad in ("integers", "geometric:D=2", "geometric:D=2.5:M=4", "steps:M=3"):
        with pytest.raises(SpecParseError):
            grid_from_spec(bad)


def test_set_specs():
    full = set_from_spec("full")
    assert full.description == "full" and full.gaps() == []
    S = set_from_spec("intervals:1-2,3-inf")
    assert S.segments == [(1.0, 2.0), (3.0, math.inf)]
    G = set_from_spec("grid:integers:M=5")
    assert G.contains(3.0) and not G.contains(3.5)
    for bad in ("intervals:2-3", "intervals:1;2", "everything"):
        with pytest.raises(SpecParseError):
            set_from_spec(bad)


def test_group_function_loading(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("0.5 1.0 2.0\n")
    G3 = cyclic_group(3)
    vals = load_group_function(path, G3)
    assert list(vals) == [0.5, 1.0, 2.0]
    with pytest.raises(SizeMismatchError):
        load_group_function(path, cyclic_group(4))
    with pytest.raises(SpecParseError):
        load_group_function(tmp_path / "missing.txt", G3)


def test_group_function_and_sample_files_parse_alike(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("0.1 -2.5e-3\n1_0 .5\n")
    np.testing.assert_array_equal(load_group_function(path, cyclic_group(4)), EmpiricalModel.from_file(path).values)
    path.write_text("1.0 abc 2.0\n")
    with pytest.raises(SpecParseError, match=r"could not convert string to float: 'abc'$"):
        load_group_function(path, cyclic_group(3))
    with pytest.raises(ValueError, match=r"^could not convert string to float: 'abc'$"):
        EmpiricalModel.from_file(path)
