import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cavsinglet.hilbert import HilbertSpace, build_space, excitation_count, named_state
from oracles import basis_vector

# frozen basis ordering for the default space (n_max=1, <=1 excitation):
# atom1-major, then atom2, then photon ascending
GOLDEN_ORDER = (
    ("0", "0", 0), ("0", "0", 1), ("0", "1", 0), ("0", "1", 1), ("0", "e", 0),
    ("1", "0", 0), ("1", "0", 1), ("1", "1", 0), ("1", "1", 1), ("1", "e", 0),
    ("e", "0", 0), ("e", "1", 0),
)


def test_dimensions():
    assert build_space(1, None).dim == 18
    assert build_space(1, 1).dim == 12
    assert build_space(2, None).dim == 27


def test_truncated_count_by_enumeration():
    # independent enumeration of <=1-excitation labels
    count = 0
    for a1 in ("0", "1", "e"):
        for a2 in ("0", "1", "e"):
            for n in (0, 1):
                if (a1 == "e") + (a2 == "e") + n <= 1:
                    count += 1
    assert count == 12
    assert build_space(1, 1).dim == count


def test_golden_basis_order():
    space = build_space(1, 1)
    assert space.labels == GOLDEN_ORDER
    assert space.index_map == {lb: i for i, lb in enumerate(GOLDEN_ORDER)}


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_space(0)
    with pytest.raises(ValueError):
        build_space(1, 0)


def test_excitation_count():
    assert excitation_count(("e", "e", 1)) == 3
    assert excitation_count(("0", "1", 0)) == 0


def test_singlet_amplitudes():
    space = build_space(1, 1)
    s = named_state(space, "S")
    expect = np.zeros(12, dtype=complex)
    expect[space.index(("0", "1", 0))] = 1 / np.sqrt(2)
    expect[space.index(("1", "0", 0))] = -1 / np.sqrt(2)
    assert np.allclose(s, expect, atol=1e-15)


def test_named_state_orthonormality():
    space = build_space(1, 1)
    ground = [named_state(space, n) for n in ("S", "T", "00", "11")]
    excited = [named_state(space, n) for n in ("T0", "S0", "T1", "S1")]
    for family in (ground, excited):
        vecs = np.array(family)
        gram = vecs.conj() @ vecs.T
        assert np.abs(gram - np.eye(4)).max() < 1e-12


def test_named_state_truncation_errors():
    space = build_space(1, 1)
    with pytest.raises(ValueError):
        named_state(space, "T1", photon=1)  # two excitations
    with pytest.raises(ValueError):
        named_state(space, "S", photon=2)  # beyond n_max
    with pytest.raises(ValueError):
        named_state(space, "nope")


def test_transition_product_truncated():
    # raising both atoms from |11>|0> leaves the truncated space
    space = build_space(1, 1)
    both = space.transition(1, "e", "1") @ space.transition(2, "e", "1")
    start = basis_vector(space, ("1", "1", 0))
    assert np.abs(both @ start).max() == 0.0


def test_spaces_are_shared():
    assert build_space(1, 1) is build_space(1, 1)
    assert build_space(1) is build_space(1, None)
    assert build_space(1, 1) is not build_space(1, None)


def test_cached_operators_are_read_only():
    space = build_space(1, 1)
    a = space.annihilator()
    sigma = space.transition(2, "e", "0")
    assert space.annihilator() is a
    assert space.transition(2, "e", "0") is sigma
    with pytest.raises(ValueError):
        a += 1.0
    with pytest.raises(ValueError):
        sigma[0, 0] = 1.0
    assert a[0, 0] == 0.0 and sigma[0, 0] == 0.0


def kron_reference(n_max, cap):
    """Single-site operators as Kronecker embeddings in the full product
    space, and the index block of the labels with at most ``cap``
    excitations, from this test's own enumeration of the product ordering."""
    labels = itertools.product("01e", "01e", range(n_max + 1))
    keep = [k for k, (a1, a2, n) in enumerate(labels)
            if cap is None or (a1 == "e") + (a2 == "e") + n <= cap]
    eye3, eyef = np.eye(3), np.eye(n_max + 1)

    def atom(site, upper, lower):
        op = np.zeros((3, 3))
        op["01e".index(upper), "01e".index(lower)] = 1.0
        pair = (op, eye3) if site == 1 else (eye3, op)
        return np.kron(np.kron(*pair), eyef)

    a = np.kron(np.eye(9), np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1))
    return atom, a, np.ix_(keep, keep)


def test_cached_operators_match_kron():
    for n_max, cap in [(1, 1), (1, None), (2, 1), (2, 2), (3, 2)]:
        space = build_space(n_max, cap)
        atom, a, block = kron_reference(n_max, cap)
        for site, upper, lower in itertools.product((1, 2), "01e", "01e"):
            assert np.array_equal(space.transition(site, upper, lower),
                                  atom(site, upper, lower)[block])
        assert np.array_equal(space.annihilator(), a[block])
        # the model's products lower before they raise, so restricting the
        # factors first gives the same bits
        adag = space.annihilator().conj().T
        assert np.array_equal(adag @ space.annihilator(), (a.T @ a)[block])
        for site in (1, 2):
            assert np.array_equal(adag @ space.transition(site, "1", "e"),
                                  (a.T @ atom(site, "1", "e"))[block])
    with pytest.raises(ValueError):
        space.transition(3, "e", "0")
    with pytest.raises(ValueError):
        space.transition(1, "e", "2")


def test_operator_cache_hands_every_thread_one_array():
    space = HilbertSpace(1, 1)  # a fresh space, so the threads race to fill it
    levels = list(itertools.product("01e", "01e"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda k: space.transition(1 + k % 2, *levels[k % 9]),
                range(360), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    # 18 distinct (site, upper, lower) keys; every call for a key gets one array
    for k, op in enumerate(results):
        assert op is results[k % 18]
        assert not op.flags.writeable
