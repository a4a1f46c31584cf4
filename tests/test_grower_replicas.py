"""The C grower's numpy replicas match numpy bit for bit.

``repro_grow_tree`` draws each node's candidate features through
``repro_choice`` (a replica of ``Generator.choice(d, m, replace=False)``
on the same bit generator) and sums node targets through
``repro_pairwise_sum`` (a replica of ``np.add.reduce``'s pairwise
summation).  These tests pin both replicas against the installed numpy,
and check that the loader refuses a library whose replicas disagree.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

import repro.forest._cgrower as _cgrower


@pytest.fixture(scope="module")
def lib():
    lib = _cgrower.load()
    if lib is None:
        pytest.skip("C kernel unavailable in this environment")
    return lib


def _replica_choice(lib, rng, d, m, work):
    out = np.empty(m, dtype=np.int64)
    nxt, state = _cgrower.bitgen_pointers(rng)
    with rng.bit_generator.lock:
        lib.repro_choice(nxt, state, d, m, out.ctypes.data, work.ctypes.data)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_choice_matches_numpy_for_every_d_m(lib, seed):
    ref = np.random.default_rng(seed)
    rep = np.random.default_rng(seed)
    work = np.zeros(40, dtype=np.int64)
    for d in range(1, 41):
        for m in range(1, d + 1):
            want = ref.choice(d, size=m, replace=False)
            got = _replica_choice(lib, rep, d, m, work)
            assert np.array_equal(want, got), (d, m)
            # Bootstrap draws interleave with feature draws in a forest.
            assert np.array_equal(
                ref.integers(0, d, size=3), rep.integers(0, d, size=3)
            )
    assert not work.any()  # the scratch comes back zeroed
    assert ref.bit_generator.state == rep.bit_generator.state


def test_choice_matches_numpy_tail_shuffle_branch(lib):
    # numpy switches from Floyd's algorithm to a tail shuffle of an
    # arange for populations above 10000 when m > d // 50.
    d = 10050
    ref = np.random.default_rng(3)
    rep = np.random.default_rng(3)
    work = np.zeros(d, dtype=np.int64)
    for m in (1, 201, 202, 300):
        want = ref.choice(d, size=m, replace=False)
        assert np.array_equal(want, _replica_choice(lib, rep, d, m, work)), m
    assert not work.any()
    assert ref.bit_generator.state == rep.bit_generator.state


def test_pairwise_sum_matches_add_reduce(lib):
    r = np.random.default_rng(0)
    values = r.normal(size=1500) * 10.0 ** r.integers(-3, 4, size=1500)
    lengths = range(1, 1501)
    assert {7, 8, 9, 127, 128, 129, 255, 256, 257} <= set(lengths)
    for n in lengths:
        a = np.ascontiguousarray(values[:n])
        got = lib.repro_pairwise_sum(a.ctypes.data, n)
        assert got == float(np.add.reduce(a)), n
        sq = a * a
        assert lib.repro_pairwise_sum(sq.ctypes.data, n) == float(np.add.reduce(sq)), n


@pytest.mark.parametrize("n", [1, 2, 9, 130])
def test_pairwise_sum_sign_of_zero(lib, n):
    # add.reduce starts from the identity +0.0, so -0.0 inputs sum to +0.0.
    a = np.full(n, -0.0)
    got = lib.repro_pairwise_sum(a.ctypes.data, n)
    assert np.signbit(got) == np.signbit(np.add.reduce(a))


class _Skewed:
    """A library whose pairwise sum is off by one ulp, as a changed numpy
    summation order would look from the replica's side."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def repro_pairwise_sum(self, ptr, n):
        return np.nextafter(self._lib.repro_pairwise_sum(ptr, n), np.inf)


class _Unshuffled:
    """A library whose choice skips numpy's final shuffle."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def repro_choice(self, nxt, state, d, m, out, work):
        self._lib.repro_choice(nxt, state, d, m, out, work)
        np.ctypeslib.as_array((ctypes.c_int64 * m).from_address(out)).sort()


def test_replica_check_accepts_the_built_library(lib):
    assert _cgrower.replicas_match(lib)


@pytest.mark.parametrize("wrapper", [_Skewed, _Unshuffled])
def test_replica_check_rejects_a_mismatch(lib, wrapper):
    assert not _cgrower.replicas_match(wrapper(lib))


def test_load_falls_back_when_replicas_mismatch(lib, monkeypatch):
    monkeypatch.setattr(_cgrower, "_lib", None)
    monkeypatch.setattr(_cgrower, "_attempted", False)
    monkeypatch.setattr(_cgrower, "replicas_match", lambda lib: False)
    assert _cgrower.load() is None
    # The decision is latched: later calls do not retry the build.
    monkeypatch.setattr(_cgrower, "replicas_match", lambda lib: True)
    assert _cgrower.load() is None
