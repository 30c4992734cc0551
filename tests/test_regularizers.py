import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import prox_oracle
from proxrestart import ElasticNet, L1, SquaredL2, Zero, gradient_mapping

ALL_VARIANTS = [Zero(), L1(1.0), SquaredL2(1.0), ElasticNet(1.0, 2.0)]


# --- penalty values ---------------------------------------------------------

def test_value_zero():
    assert Zero().value(np.array([4.0, -2.0])) == 0.0


def test_value_l1():
    assert L1(2.0).value(np.array([1.0, -3.0])) == 8.0


def test_value_elastic_net():
    assert ElasticNet(1.0, 2.0).value(np.array([1.0, -1.0])) == 4.0


def test_value_squared_l2():
    assert SquaredL2(3.0).value(np.array([2.0])) == 6.0


# --- proximal maps ----------------------------------------------------------

def test_prox_zero_is_identity():
    x = np.array([2.0, -0.3])
    assert np.array_equal(Zero().prox(x, 1.0), x)


def test_prox_l1_matches_oracle_example():
    x = np.array([2.0, -0.3, 0.0])
    got = L1(1.0).prox(x, 0.5)
    assert got == pytest.approx([1.5, 0.0, 0.0], abs=1e-12)
    assert got == pytest.approx(prox_oracle(L1(1.0), x, 0.5), abs=1e-6)


def test_prox_squared_l2_matches_oracle_example():
    got = SquaredL2(1.0).prox(np.array([2.0]), 1.0)
    assert got == pytest.approx([1.0], abs=1e-12)
    assert got == pytest.approx(prox_oracle(SquaredL2(1.0), np.array([2.0]), 1.0), abs=1e-6)


@pytest.mark.parametrize("reg", [L1(0.7), SquaredL2(1.3), ElasticNet(0.5, 2.0)])
def test_prox_matches_oracle_random(reg, rng):
    for _ in range(100):
        eta = float(rng.uniform(0.05, 5.0))
        x = rng.uniform(-8.0, 8.0, size=4)
        assert reg.prox(x, eta) == pytest.approx(prox_oracle(reg, x, eta), abs=1e-6)


def test_prox_rejects_bad_eta():
    for reg in ALL_VARIANTS:
        with pytest.raises(ValueError):
            reg.prox(np.ones(2), 0.0)
        with pytest.raises(ValueError):
            reg.prox(np.ones(2), -1.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_prox_firmly_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    reg = ALL_VARIANTS[int(rng.integers(len(ALL_VARIANTS)))]
    eta = float(rng.uniform(0.05, 4.0))
    x = rng.standard_normal(5) * 3
    y = rng.standard_normal(5) * 3
    lhs = np.linalg.norm(reg.prox(x, eta) - reg.prox(y, eta))
    assert lhs <= np.linalg.norm(x - y) + 1e-12


# --- gradient mapping -------------------------------------------------------

def test_gradient_mapping_zero_reg_returns_u():
    x = np.array([1.0, -2.0])
    u = np.array([0.3, 0.7])
    for eta in (0.1, 1.0, 7.0):
        assert gradient_mapping(Zero(), eta, x, u) == pytest.approx(u, abs=1e-12)


def test_gradient_mapping_l1_example():
    got = gradient_mapping(L1(1.0), 0.5, np.array([2.0]), np.array([1.0]))
    assert got == pytest.approx([2.0], abs=1e-12)


def test_gradient_mapping_vanishes_at_fixed_point():
    # |u| <= mu at x = 0: the prox of x - eta*u returns exactly x
    got = gradient_mapping(L1(1.0), 0.5, np.zeros(3), np.array([0.5, -1.0, 0.0]))
    assert np.array_equal(got, np.zeros(3))


def test_gradient_mapping_validates():
    with pytest.raises(ValueError):
        gradient_mapping(L1(1.0), -0.5, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        gradient_mapping(L1(1.0), 0.5, np.zeros(2), np.zeros(3))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_gradient_mapping_inner_product_bound(seed):
    # <u, G(x,u)> >= ||G||^2 + (g(prox(x - eta u)) - g(x)) / eta
    rng = np.random.default_rng(seed)
    reg = ALL_VARIANTS[int(rng.integers(len(ALL_VARIANTS)))]
    eta = float(rng.uniform(0.05, 4.0))
    x = rng.standard_normal(6) * 2
    u = rng.standard_normal(6) * 2
    G = gradient_mapping(reg, eta, x, u)
    rhs = float(np.dot(G, G)) + (reg.value(reg.prox(x - eta * u, eta)) - reg.value(x)) / eta
    assert float(np.dot(u, G)) >= rhs - 1e-8


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_gradient_mapping_nonexpansive_in_u(seed):
    rng = np.random.default_rng(seed)
    reg = ALL_VARIANTS[int(rng.integers(len(ALL_VARIANTS)))]
    eta = float(rng.uniform(0.05, 4.0))
    x = rng.standard_normal(6) * 2
    u = rng.standard_normal(6) * 2
    v = rng.standard_normal(6) * 2
    diff = gradient_mapping(reg, eta, x, u) - gradient_mapping(reg, eta, x, v)
    assert np.linalg.norm(diff) <= np.linalg.norm(u - v) + 1e-10


# --- subdifferential distance ------------------------------------------------

def test_subdiff_l1_interval_absorbs_small_gradient():
    assert L1(1.0).subdiff_distance(np.array([0.5]), np.array([0.0])) == 0.0


def test_subdiff_l1_active_coordinate():
    assert L1(1.0).subdiff_distance(np.array([-1.0]), np.array([1.0])) == 0.0


def test_subdiff_l1_violation():
    assert L1(1.0).subdiff_distance(np.array([2.0]), np.array([0.0])) == 1.0


def test_subdiff_zero_is_gradient_norm():
    g = np.array([3.0, 4.0])
    assert Zero().subdiff_distance(g, np.zeros(2)) == 5.0


def test_subdiff_squared_l2():
    got = SquaredL2(2.0).subdiff_distance(np.array([1.0, 0.0]), np.array([0.5, 1.0]))
    assert got == pytest.approx(np.hypot(2.0, 2.0))


def test_subdiff_elastic_net_composes():
    reg = ElasticNet(1.0, 2.0)
    # at zero: quadratic part contributes nothing, interval [-1, 1] absorbs
    assert reg.subdiff_distance(np.array([0.8]), np.array([0.0])) == 0.0
    assert reg.subdiff_distance(np.array([2.0]), np.array([0.0])) == 1.0
    # away from zero: gradient + mu1*sign + mu2*x
    got = reg.subdiff_distance(np.array([-1.0]), np.array([1.0]))
    assert got == pytest.approx(2.0)


@pytest.mark.parametrize("reg", [L1(0.8), ElasticNet(0.6, 1.2), SquaredL2(0.9)])
def test_subdiff_distance_brute_force(reg, rng):
    # distance to grad + dg(x) via dense sampling of the subdifferential box
    for _ in range(50):
        x = np.round(rng.uniform(-2, 2, size=3), 1)  # some exact zeros
        g = rng.uniform(-3, 3, size=3)
        mu1 = getattr(reg, "mu1", getattr(reg, "mu", 0.0)) if not isinstance(reg, SquaredL2) else 0.0
        mu2 = reg.mu2 if isinstance(reg, ElasticNet) else (reg.mu if isinstance(reg, SquaredL2) else 0.0)
        total = 0.0
        for j in range(3):
            base = g[j] + mu2 * x[j]
            if x[j] == 0.0:
                candidates = base + mu1 * np.linspace(-1, 1, 20001)
                total += float(np.min(np.abs(candidates))) ** 2
            else:
                total += (base + mu1 * np.sign(x[j])) ** 2
        assert reg.subdiff_distance(g, x) == pytest.approx(np.sqrt(total), abs=1e-4)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        L1(-1.0)
    with pytest.raises(ValueError):
        SquaredL2(-0.1)
    with pytest.raises(ValueError):
        ElasticNet(1.0, -2.0)


# --- pinned bytes -------------------------------------------------------------

# Signed zeros, a subnormal, tiny and large entries, and entries that sit
# exactly on a soft threshold (0.35 = 0.5 * 0.7) or an interval end (|g| = mu).
PIN_X = np.array([0.0, -0.0, 1e-12, -3e-9, 0.35, -0.7, 2.5, -1.0e8, 1.0e5, 5e-324, 0.0])
PIN_G = np.array([0.7, -0.5, 3.0, -1e-3, 0.0, -0.0, 1e6, 0.2, -4.0, 1.3, -2.0])
PIN_DIGESTS = {
    "Zero()": "9d3a942700563d083452e43f20dd426baba2f73c1ffdd078b88cf09582256459",
    "L1(mu=0.0)": "cc57cb750e6e0d546e9a81870f8ba4c7504aa2bf11f4ffb294e35146f82d8f87",
    "L1(mu=0.7)": "bd96c61590e3d549c175c86e343a4224a9a8c0e930beb25278e4d0f12ba07cb0",
    "SquaredL2(mu=0.0)": "9d3a942700563d083452e43f20dd426baba2f73c1ffdd078b88cf09582256459",
    "SquaredL2(mu=1.3)": "69927ed5a5d539f0c386f4b7a9cf6b540778e9880afc9810327bc645394b00c1",
    "ElasticNet(mu1=0.0, mu2=2.0)": "267741aadde064aba6f3a38047f34b1d7fb15e9b347c5b3ccc91bc65beb192f5",
    "ElasticNet(mu1=0.5, mu2=0.0)": "224330413da696def6ff6d50461b9b647737500e1e5339f5c39fe7578a2885a3",
    "ElasticNet(mu1=0.5, mu2=2.0)": "5c41b336220bea709efd5fe8bbd498d3cc07d060558f519e521d698cbf06edb6",
}


@pytest.mark.parametrize("reg", [
    Zero(), L1(0.0), L1(0.7), SquaredL2(0.0), SquaredL2(1.3),
    ElasticNet(0.0, 2.0), ElasticNet(0.5, 0.0), ElasticNet(0.5, 2.0),
], ids=repr)
def test_regularizer_bytes_are_pinned(reg):
    # value, prox at two stepsizes and subdiff_distance, byte for byte
    h = hashlib.sha256(np.float64(reg.value(PIN_X)).tobytes())
    for eta in (0.5, 3.0):
        z = reg.prox(PIN_X, eta)
        assert z is not PIN_X
        h.update(z.tobytes())
    h.update(np.float64(reg.subdiff_distance(PIN_G, PIN_X)).tobytes())
    assert h.hexdigest() == PIN_DIGESTS[repr(reg)], repr(reg)
