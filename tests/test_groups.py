"""Finite groups, normalized convolution, Young and algebra inequalities."""

import math
import re

import numpy as np
import pytest

from glspace import (
    DomainError,
    FiniteGroup,
    GroupAxiomError,
    GroupFunctionModel,
    PowerSlowVaryParams,
    YoungTriple,
    algebra_check,
    convolve,
    cyclic_group,
    dihedral_group,
    group_lp_norm,
    make_group,
    make_power_slowvary,
    product_group,
    raw_power_slowvary,
    symmetric_group,
    unit_function,
    young_check,
)
from glspace import SpecParseError, groups, models


def small_groups():
    return [cyclic_group(5), dihedral_group(4), symmetric_group(3)]


def dyadic(rng, n):
    # eighths are exact in binary, so convolution identities can be
    # checked bitwise
    return rng.integers(-16, 17, size=n).astype(float) / 8.0


def test_cyclic_group_structure():
    G = cyclic_group(4)
    assert G.order == 4 and G.identity == 0
    assert G.inv[1] == 3
    assert G.name == "cyclic:4"


def test_broken_table_rejected():
    with pytest.raises(GroupAxiomError):
        FiniteGroup("broken", np.array([[0, 1], [1, 1]]))


def test_symmetric_group_is_noncommutative():
    G = symmetric_group(4)
    assert G.order == 24
    assert any(
        G.mul[a, b] != G.mul[b, a] for a in range(G.order) for b in range(G.order)
    )


def test_product_group_has_an_order_six_element():
    G = make_group("product:cyclic:2xcyclic:3")
    assert G.order == 6
    k = 4  # the element (1, 1)
    power, order = k, 1
    while power != G.identity:
        power = int(G.mul[power, k])
        order += 1
    assert order == 6
    assert product_group(cyclic_group(2), cyclic_group(3)).name == "product:cyclic:2xcyclic:3"


def test_convolution_by_hand_on_two_elements():
    G = cyclic_group(2)
    f = np.array([2.0, 0.0])  # twice the unit mass at the identity
    g = np.array([0.0, 2.0])
    assert np.array_equal(convolve(G, f, g), g)


def test_unit_function_is_a_bitwise_identity():
    rng = np.random.default_rng(3)
    for G in small_groups():
        f = dyadic(rng, G.order)
        u = unit_function(G)
        assert np.array_equal(convolve(G, f, u), f)
        assert np.array_equal(convolve(G, u, f), f)


def test_noncommutative_convolution():
    G = dihedral_group(3)
    f = np.zeros(G.order)
    g = np.zeros(G.order)
    f[1] = 1.0  # a rotation
    g[3] = 1.0  # a reflection
    assert not np.array_equal(convolve(G, f, g), convolve(G, g, f))


def test_convolution_is_associative_and_bilinear():
    rng = np.random.default_rng(11)
    for G in small_groups():
        f, g, h = (rng.normal(size=G.order) for _ in range(3))
        left = convolve(G, convolve(G, f, g), h)
        right = convolve(G, f, convolve(G, g, h))
        np.testing.assert_allclose(left, right, atol=1e-12)
        combo = convolve(G, 2.0 * f + 3.0 * g, h)
        np.testing.assert_allclose(
            combo, 2.0 * convolve(G, f, h) + 3.0 * convolve(G, g, h), atol=1e-12
        )


def test_group_norms():
    G = cyclic_group(4)
    f = np.array([1.0, 2.0, 3.0, 4.0])
    assert group_lp_norm(G, f, 1.0) == pytest.approx(2.5, rel=1e-15)
    assert group_lp_norm(G, f, 2.0) == pytest.approx(math.sqrt(7.5), rel=1e-14)
    assert group_lp_norm(G, f, math.inf) == 4.0
    with pytest.raises(DomainError):
        group_lp_norm(G, f, 0.5)


@pytest.mark.parametrize("G", small_groups(), ids=lambda G: G.name)
def test_group_moments_array_matches_scalar_up_to_inf(G):
    fm = GroupFunctionModel(G, np.random.default_rng(G.order).normal(size=G.order))
    ps = np.append(np.geomspace(1.0, 200.0, 511), math.inf)
    expect = np.array([group_lp_norm(G, fm.values, float(p)) for p in ps])
    got = fm.lp_norm(ps)
    np.testing.assert_array_max_ulp(got, expect, maxulp=4)
    assert got[-1] == fm.lp_norm(math.inf) == np.abs(fm.values).max()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_group_function_rejects_non_finite_values(bad):
    G = cyclic_group(3)
    f, ones = [1.0, bad, 2.0], np.ones(3)
    with pytest.raises(DomainError, match=rf"^fn-on-cyclic:3: value {bad!r} at index 1 is not finite$"):
        GroupFunctionModel(G, f)
    with pytest.raises(DomainError, match=rf"^f: value {bad!r} at index 1 is not finite$"):
        algebra_check(G, f, ones, make_power_slowvary(PowerSlowVaryParams(r=2.0)))
    # a non-finite input has no norm: young_check must not judge nan against nan
    for call in (
        lambda: convolve(G, f, ones),
        lambda: convolve(G, ones, f),
        lambda: young_check(G, f, ones, YoungTriple(1.0, 1.0, 1.0)),
        lambda: young_check(G, ones, f, YoungTriple(1.0, 1.0, 1.0)),
        lambda: group_lp_norm(G, f, 2.0),
    ):
        with pytest.raises(DomainError, match=rf"^function on cyclic:3: value {bad!r} at index 1 is not finite$"):
            call()


def test_an_algebra_check_checks_each_array_once(monkeypatch):
    # f and g when their models are built, f*g when its model is; convolve
    # takes the models' checked values
    G, rng = dihedral_group(4), np.random.default_rng(4)
    f, g = rng.standard_normal(8), rng.standard_normal(8)
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0))
    expect = algebra_check(G, f, g, psi)
    checked = []
    real = models._check_finite

    def spy(values, label):
        checked.append(label)
        return real(values, label)

    monkeypatch.setattr(models, "_check_finite", spy)
    monkeypatch.setattr(groups, "_check_finite", spy)
    assert algebra_check(G, f, g, psi) == expect
    assert checked == ["f", "g", "f*g"]
    # models on G convolve as their values do, unchecked
    fm, gm = GroupFunctionModel(G, f), GroupFunctionModel(G, g)
    checked.clear()
    assert convolve(G, fm, gm).tobytes() == convolve(G, f, g).tobytes()
    assert checked == ["function on dihedral:4"] * 2


def test_young_triple_validation():
    YoungTriple(1.0, 1.0, 1.0)
    YoungTriple(2.0, 2.0, math.inf)
    with pytest.raises(DomainError):
        YoungTriple(2.0, 2.0, 2.0)


def test_young_equality_at_the_l1_corner():
    # for nonnegative f, g the L1 case is an identity, so the check is
    # sharp there
    G = dihedral_group(4)
    rng = np.random.default_rng(5)
    f = rng.random(G.order)
    g = rng.random(G.order)
    rep = young_check(G, f, g, YoungTriple(1.0, 1.0, 1.0))
    assert rep.ok
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)


def test_young_with_conjugate_exponents():
    G = symmetric_group(3)
    rng = np.random.default_rng(9)
    f = rng.normal(size=G.order)
    g = rng.normal(size=G.order)
    for triple in (YoungTriple(1.5, 3.0, math.inf), YoungTriple(1.0, 2.0, 2.0)):
        rep = young_check(G, f, g, triple)
        assert rep.ok
        assert rep.lhs <= rep.rhs * (1.0 + 1e-12)


def test_algebra_bound_normalized_and_raw():
    G = cyclic_group(8)
    rng = np.random.default_rng(2)
    f = rng.normal(size=G.order)
    g = rng.normal(size=G.order)
    rep = algebra_check(G, f, g, make_power_slowvary(PowerSlowVaryParams(r=2.0)))
    assert rep.ok and rep.constant == 1.0
    raw = raw_power_slowvary(PowerSlowVaryParams(r=1.0, delta=1.0))
    rep_raw = algebra_check(G, f, g, raw)
    assert rep_raw.ok
    assert rep_raw.constant == pytest.approx(math.log(3.0), rel=1e-14)


def test_group_spec_errors():
    with pytest.raises(SpecParseError):
        make_group("foo:3")
    with pytest.raises(SpecParseError):
        make_group("cyclic:abc")
    with pytest.raises(SpecParseError):
        make_group("symmetric:7")


@pytest.mark.parametrize("spec, why", [
    ("product:cyclic:2xcyclic:0", ": cyclic groups need n >= 1"),
    ("product:cyclic:2xfoo:3", ": unknown group kind 'foo' in 'foo:3'"),
    # no 'x' to split at: no operand was tried
    ("product:cyclic:2", ""),
])
def test_a_bad_product_operand_is_named_in_the_split_error(spec, why):
    # the message said only that the operands could not be split
    message = f"cannot split product operands in {spec!r}{why}"
    with pytest.raises(SpecParseError, match=f"^{re.escape(message)}$"):
        make_group(spec)


# a table with an identity (0) and two-sided inverses (each element is its
# own) whose product is not associative: (1 1) 2 = 2 but 1 (1 2) = 0
_NOT_ASSOCIATIVE = [[0, 1, 2], [1, 0, 1], [2, 2, 0]]


@pytest.mark.parametrize("table, labels, message", [
    (np.zeros((2, 3)), None, "t: multiplication table must be square"),
    (np.zeros(4), None, "t: multiplication table must be square"),
    ([[0, 2], [2, 0]], None, "t: table entries must index elements 0..1"),
    ([[0, -1], [-1, 0]], None, "t: table entries must index elements 0..1"),
    ([[0, 1], [1, 0]], ("e",), "t: 1 labels for 2 elements"),
    # no element leaves every other one in place; two identities e, e'
    # cannot both be, since e e' is e' and e at once
    ([[0, 0], [0, 0]], None, "t: expected exactly one identity, found 0"),
    (_NOT_ASSOCIATIVE, None, "t: multiplication is not associative"),
], ids=["rectangular", "flat", "entry-past-n", "negative-entry", "labels", "no-identity", "not-associative"])
def test_a_table_that_breaks_an_axiom_is_rejected_naming_it(table, labels, message):
    with pytest.raises(GroupAxiomError, match=f"^{re.escape(message)}$"):
        FiniteGroup("t", table, labels)


def test_above_the_exhaustive_limit_associativity_is_spot_checked(monkeypatch):
    monkeypatch.setattr(groups, "_EXHAUSTIVE_ASSOC_LIMIT", 2)
    with pytest.raises(GroupAxiomError, match=r"^t: associativity spot check failed$"):
        FiniteGroup("t", _NOT_ASSOCIATIVE)
    G = cyclic_group(5)
    assert np.array_equal(FiniteGroup("cyclic:5", G.mul).mul, G.mul)
