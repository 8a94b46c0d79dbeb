"""The counter-based table of doubles against numpy's Generator streams,
and the batched Jacobian-point rows against per-row matrix products.  A
NumPy or BLAS change that moves one bit of either fails here."""

from types import SimpleNamespace

import numpy as np
import pytest

from faylab import rng as rng_module
from faylab.kernels import random_line_bundle, sample_xi
from faylab.rng import _MULTIPLIERS, _mulhi, Table, trial_rng, uniforms
from faylab.theta import RiemannMatrix

from oracles import GeneratorDraws


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("width", [1, 3, 4, 5, 8, 13])
def test_uniforms_are_the_generator_doubles(seed, width):
    # widths inside one 4-word block, at its end and across it
    label = f"pin|{seed}"
    ks = [0, 1, 2, 7, 1000, 2**32 + 3, 2**64 - 1]
    want = np.array([trial_rng(seed, label, k).random(width) for k in ks])
    got = uniforms(seed, label, ks, width)
    assert got.shape == (len(ks), width) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [0, 1, 16])
def test_no_streams(width):
    # a table of no trials (a report whose environment failed to build)
    # reads as (0, n) arrays
    assert uniforms(42, "x", [], width).shape == (0, width)
    assert Table(42, "x", range(0)).take(np.arange(0), 5).shape == (0, 5)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_table_reads_each_stream_in_order_past_its_width(seed):
    # cursors move on their own; reads of 1, 2, 7 and 40 doubles take the
    # rows past their first 16 doubles and past every later width
    label, trials = "pin|table", 9
    table = Table(seed, label, range(trials))
    streams = [trial_rng(seed, label, k) for k in range(trials)]
    rng = np.random.default_rng(seed % 2**32)
    for n in (1, 2, 7, 40, 3, 40, 5):
        rows = np.sort(rng.choice(trials, size=rng.integers(1, trials + 1), replace=False))
        want = np.array([streams[k].random(n) for k in rows])
        assert table.take(rows, n).tobytes() == want.tobytes()
    assert table.u.shape[1] >= table.at.max() and table.take(np.arange(0), 3).shape == (0, 3)


def test_mulhi_is_the_high_word_of_the_product():
    # the stacked high words against Python integers, for each round
    # multiplier, the largest multiplier, and words at the limb edges
    edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2**32, 2**64 - 1]
    a = np.concatenate([np.array(edges, dtype=np.uint64), np.random.default_rng(3).integers(
        0, 2**64 - 1, 500, dtype=np.uint64, endpoint=True)])
    m = np.append(_MULTIPLIERS.ravel(), np.uint64(2**64 - 1))[:, None]
    got = _mulhi(np.broadcast_to(a, (len(m), len(a))), m)
    want = [[int(x) * int(y) >> 64 for x in a] for y in m[:, 0]]
    assert got.tolist() == want


@pytest.mark.parametrize("reads, starts", [
    ((41, 49), [16, 41]), ((16, 3, 77), [16, 32]), ((4, 60, 3, 200, 1), [16, 64, 128, 267])],
    ids=["from_partial_block", "from_full_blocks", "mixed"])
def test_table_widens_past_its_width_only(monkeypatch, reads, starts):
    # each widening asks uniforms for the doubles from the old width on, so
    # for no block below it: reads of 41 then 49 doubles widen the table to
    # 41, then from 41, inside block 10, to 90.  Every row keeps its
    # stream's bits
    calls, real = [], rng_module.uniforms
    monkeypatch.setattr(rng_module, "uniforms", lambda *args: calls.append(args[3:]) or real(*args))
    label, trials = "pin|widen", 5
    table, widths = Table(42, label, range(trials)), []
    for n in reads:
        before = table.u.shape[1]
        table.take(np.arange(trials), n)
        if table.u.shape[1] > before:
            widths.append(table.u.shape[1])
    assert calls == [(16,)] + list(zip(widths, starts))
    want = np.array([trial_rng(42, label, k).random(widths[-1]) for k in range(trials)])
    assert table.u.tobytes() == want.tobytes()


def _riemann_matrix(g, rng):
    """A random Riemann matrix with Re Omega != 0."""
    M = rng.standard_normal((g, g))
    return RiemannMatrix(0.5 * (M + M.T) + 1j * (M @ M.T + g * np.eye(g)))


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("sampler", [sample_xi, random_line_bundle])
def test_batched_jacobian_points_are_per_row_products(g, sampler):
    # every row of a 2,000-row batch equals u + omega @ v taken alone, u
    # and v the row's two blocks of g doubles as the scalar rule maps them
    rng = np.random.default_rng(g)
    ctx = SimpleNamespace(g=g, rm=_riemann_matrix(g, rng))
    U = rng.random((2000, 2 * g))
    got, errors = sampler(ctx, lambda rows, n: U[rows, :n], np.arange(2000), 1)
    if sampler is sample_xi:
        U = 0.9 * (U - 0.5)
    want = np.array([u + ctx.rm.omega @ v for u, v in zip(U[:, :g], U[:, g:])])
    assert errors == {} and got[:, 0].tobytes() == want.tobytes()


def test_one_stream_draws_as_a_generator_does():
    # a draw of 3 Jacobian points reads the stream's next 6g doubles
    ctx = SimpleNamespace(g=2, rm=_riemann_matrix(2, np.random.default_rng(5)))
    rng, twin = trial_rng(7, "pin|xi", 0), trial_rng(7, "pin|xi", 0)
    xis, _ = sample_xi(ctx, GeneratorDraws(rng).take, np.arange(1), 3)
    U = 0.9 * (twin.random((3, 2, 2)) - 0.5)
    assert xis[0].tobytes() == np.array([u + ctx.rm.omega @ v for u, v in U]).tobytes()
