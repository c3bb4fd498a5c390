"""Unit tests for deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim.random import RandomStreams, stable_hash32


def test_same_seed_same_stream_reproduces():
    a = RandomStreams(42).stream("machine/0")
    b = RandomStreams(42).stream("machine/0")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_decorrelated():
    rs = RandomStreams(42)
    xs = rs.stream("a").random(100)
    ys = rs.stream("b").random(100)
    assert list(xs) != list(ys)


def test_different_seeds_differ():
    x = RandomStreams(1).stream("m").random()
    y = RandomStreams(2).stream("m").random()
    assert x != y


def test_stream_is_memoised():
    rs = RandomStreams(7)
    assert rs.stream("x") is rs.stream("x")


def test_creation_order_does_not_matter():
    rs1 = RandomStreams(9)
    rs1.stream("first")
    v1 = rs1.stream("second").random()
    rs2 = RandomStreams(9)
    v2 = rs2.stream("second").random()
    assert v1 == v2


def test_fork_namespaces_streams():
    rs = RandomStreams(5)
    child = rs.fork("sub")
    assert child.seed == 5
    assert child.stream("x").random() != rs.stream("x").random()


def test_fork_is_deterministic():
    a = RandomStreams(5).fork("sub").stream("x").random()
    b = RandomStreams(5).fork("sub").stream("x").random()
    assert a == b


def test_stable_hash32_is_stable_and_bounded():
    assert stable_hash32("hello") == stable_hash32("hello")
    assert 0 <= stable_hash32("anything") < 2**32
    assert stable_hash32("a") != stable_hash32("b")


# ----------------------------------------------------------------------
# batched draws == sequential draws (the columnar kernel's RNG contract)
# ----------------------------------------------------------------------
# Every named stream the simulation owns.  The columnar probing pass and
# the batched behavioural draws are bit-identical to the per-object path
# only if, on PCG64, one batched draw of length N consumes the generator
# exactly like N sequential draws -- same values, same final cursor.
# docs/columnar.md states the argument; these tests pin it per stream.

SIM_STREAM_NAMES = (
    "calendar",
    "lab_demand/L01",
    "smart/L01-M01",
    "agent/L01-M01",
    "ddc",
    "nbench",
    "behaviour/traits",
    "behaviour/tick",
)


def _pair(name, seed=2005):
    """Two independent, identically-seeded copies of one named stream."""
    return RandomStreams(seed).stream(name), RandomStreams(seed).stream(name)


@pytest.mark.parametrize("n", (1, 7, 128))
@pytest.mark.parametrize("name", SIM_STREAM_NAMES)
def test_batched_uniform_matches_sequential(name, n):
    batched, seq = _pair(name)
    lo, hi = 0.25, 0.9  # the DDC exec-latency window
    values = batched.uniform(lo, hi, n)
    expected = [seq.uniform(lo, hi) for _ in range(n)]
    assert values.tolist() == expected
    assert batched.bit_generator.state == seq.bit_generator.state


@pytest.mark.parametrize("name", SIM_STREAM_NAMES)
def test_batched_lognormal_scalar_params_matches_sequential(name):
    batched, seq = _pair(name)
    values = batched.lognormal(0.4, 1.2, 64)
    expected = [seq.lognormal(0.4, 1.2) for _ in range(64)]
    assert values.tolist() == expected
    assert batched.bit_generator.state == seq.bit_generator.state


@pytest.mark.parametrize("name", SIM_STREAM_NAMES)
def test_batched_lognormal_array_params_matches_sequential(name):
    # Array mu/sigma is how the vector engine batches its per-roster
    # draws, whose parameters differ machine to machine.
    batched, seq = _pair(name)
    mu = np.linspace(-1.0, 2.0, 40)
    sigma = np.linspace(0.1, 1.5, 40)
    values = batched.lognormal(mu, sigma)
    expected = [seq.lognormal(m, s) for m, s in zip(mu, sigma)]
    assert values.tolist() == expected
    assert batched.bit_generator.state == seq.bit_generator.state


#: Streams owned by the phase-2 behavioural engine (sessions, power and
#: workload dynamics all draw from these two fleet-wide streams).
BEHAVIOUR_STREAM_NAMES = ("behaviour/traits", "behaviour/tick")


@pytest.mark.parametrize("name", BEHAVIOUR_STREAM_NAMES)
def test_batched_normal_matches_sequential(name):
    # Session busy-levels and workload memory fractions draw normals.
    batched, seq = _pair(name)
    mu = np.linspace(0.2, 0.8, 33)
    values = batched.normal(mu, 0.08)
    expected = [seq.normal(m, 0.08) for m in mu]
    assert values.tolist() == expected
    assert batched.bit_generator.state == seq.bit_generator.state


@pytest.mark.parametrize("name", BEHAVIOUR_STREAM_NAMES)
def test_batched_beta_matches_sequential(name):
    # Power traits draw leave-on biases from a beta distribution.
    batched, seq = _pair(name)
    values = batched.beta(0.9, 4.2, 50)
    expected = [seq.beta(0.9, 4.2) for _ in range(50)]
    assert values.tolist() == expected
    assert batched.bit_generator.state == seq.bit_generator.state


@pytest.mark.parametrize("name", BEHAVIOUR_STREAM_NAMES)
def test_batched_exponential_matches_sequential(name):
    # Walk-in inter-arrival gaps are exponential draws.
    batched, seq = _pair(name)
    values = batched.exponential(8 * 3600.0, 25)
    expected = [seq.exponential(8 * 3600.0) for _ in range(25)]
    assert values.tolist() == expected
    assert batched.bit_generator.state == seq.bit_generator.state


@pytest.mark.parametrize("name", BEHAVIOUR_STREAM_NAMES)
def test_batched_bernoulli_matches_sequential(name):
    # Per-tick Bernoulli gates (attendance, shutdown-after-use, redraw)
    # compare uniform variates against probabilities.
    batched, seq = _pair(name)
    p = np.linspace(0.05, 0.95, 64)
    values = batched.random(64) < p
    expected = [seq.random() < pi for pi in p]
    assert values.tolist() == expected
    assert batched.bit_generator.state == seq.bit_generator.state


@pytest.mark.parametrize("name", SIM_STREAM_NAMES)
def test_mixed_batch_sizes_keep_cursor_aligned(name):
    # Interleaving batch sizes (what the columnar pass does as the
    # powered set changes per iteration) never desynchronises the
    # cursor from the sequential path.
    batched, seq = _pair(name)
    for size in (3, 1, 17, 2, 50):
        values = batched.uniform(0.0, 1.0, size)
        expected = [seq.uniform(0.0, 1.0) for _ in range(size)]
        assert values.tolist() == expected
    assert batched.bit_generator.state == seq.bit_generator.state
