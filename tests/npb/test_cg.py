"""Tests of the CG (conjugate gradient) port."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.ad import ops
from repro.core.analysis import scrutinize
from repro.npb.cg import CG

#: ``output(run_full())`` of the dense-matrix port the ELLPACK storage
#: replaced, per problem class
DENSE_ZETA = {"S": 21.51987178076716, "A": 41.542799332218365}


def _dense(bench) -> np.ndarray:
    """The ELLPACK arrays scattered into a dense ``na x na`` matrix
    (padding slots add 0.0 to the diagonal)."""
    n = bench.params.na
    a = np.zeros((n, n))
    rows = np.broadcast_to(np.arange(n)[:, None], bench._cols.shape)
    np.add.at(a, (rows, bench._cols), bench._vals)
    return a


def _dense_reference(params) -> np.ndarray:
    """The dense ``makea`` stand-in the ELLPACK storage replaced."""
    n = params.na
    rng = np.random.default_rng(19940704)
    a = np.zeros((n, n), dtype=np.float64)
    for offset in range(1, params.nonzer + 1):
        coupling = 0.5 ** offset
        idx = np.arange(n - offset)
        values = coupling * (0.5 + rng.random(n - offset))
        a[idx, idx + offset] = values
        a[idx + offset, idx] = values
    row_sums = np.abs(a).sum(axis=1)
    a[np.arange(n), np.arange(n)] = row_sums + params.shift
    return a


@pytest.fixture(scope="module")
def bench():
    return CG(problem_class="T")


@pytest.fixture(scope="module")
def result(bench):
    return scrutinize(bench)


class TestMatrix:
    def test_matrix_is_symmetric(self, bench):
        a = _dense(bench)
        np.testing.assert_allclose(a, a.T)

    def test_matrix_is_strictly_diagonally_dominant(self, bench):
        a = _dense(bench)
        diag = np.abs(np.diag(a))
        off = np.abs(a).sum(axis=1) - diag
        assert np.all(diag > off)

    def test_matrix_is_positive_definite(self, bench):
        eigenvalues = np.linalg.eigvalsh(_dense(bench))
        assert np.all(eigenvalues > 0.0)

    def test_matrix_is_deterministic(self):
        a, b = CG(problem_class="T"), CG(problem_class="T")
        np.testing.assert_array_equal(a._cols, b._cols)
        np.testing.assert_array_equal(a._vals, b._vals)


class TestEllpackStorage:
    @pytest.mark.parametrize("cls", ["T", "S", "A"])
    def test_matches_the_dense_matrix_it_replaced(self, cls):
        bench = CG(problem_class=cls)
        ref = _dense_reference(bench.params)
        got = _dense(bench)
        off = ~np.eye(bench.params.na, dtype=bool)
        # same sparsity pattern, off-diagonal values bit for bit
        np.testing.assert_array_equal(got != 0.0, ref != 0.0)
        assert got[off].tobytes() == ref[off].tobytes()
        # band-only row sums regroup the diagonal's reduction: <= 1 ulp
        d_got, d_ref = np.diag(got), np.diag(ref)
        assert np.all(np.abs(d_got - d_ref) <= np.spacing(d_ref))

    def test_padding_points_at_the_own_row_and_holds_zero(self):
        bench = CG(problem_class="T")
        n, nonzer = bench.params.na, bench.params.nonzer
        assert bench._cols.shape == (n, 2 * nonzer + 1)
        assert bench._cols.min() >= 0 and bench._cols.max() < n
        band = np.arange(n)[:, None] + np.arange(-nonzer, nonzer + 1)
        outside = (band < 0) | (band >= n)
        rows = np.broadcast_to(np.arange(n)[:, None], band.shape)
        np.testing.assert_array_equal(bench._cols[outside], rows[outside])
        assert np.all(bench._vals[outside] == 0.0)
        np.testing.assert_array_equal(bench._cols[~outside], band[~outside])

    @pytest.mark.parametrize("cls", ["T", "S"])
    def test_matvec_matches_the_dense_product(self, cls):
        bench = CG(problem_class=cls)
        p = np.random.default_rng(7).standard_normal(bench.params.na)
        np.testing.assert_allclose(bench._matvec(p), _dense(bench) @ p,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("cls", sorted(DENSE_ZETA))
    def test_output_matches_the_dense_port(self, cls):
        bench = CG(problem_class=cls)
        zeta = float(ops.to_numpy(bench.output(bench.run_full())))
        assert zeta == pytest.approx(DENSE_ZETA[cls], rel=1e-12, abs=0.0)

    def test_construction_allocates_no_dense_matrix(self):
        from repro.npb.params import params_for
        params = params_for("CG", "A")
        tracemalloc.start()
        try:
            CG(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.na * params.na * 8 // 16


class TestSolver:
    def test_conj_grad_solves_the_system(self, bench):
        x = bench.initial_state()["x"][: bench.params.na]
        z, rnorm = bench._conj_grad(x)
        residual = x - _dense(bench) @ np.asarray(ops.to_numpy(z))
        assert float(ops.to_numpy(rnorm)) == pytest.approx(
            np.linalg.norm(residual))
        assert np.linalg.norm(residual) < 1e-6 * np.linalg.norm(x)

    def test_advance_normalises_the_iterate(self, bench):
        new = bench._advance(bench.initial_state())
        na = bench.params.na
        assert np.linalg.norm(new["x"][:na]) == pytest.approx(1.0)

    def test_advance_keeps_unused_tail_untouched(self, bench):
        state = bench.initial_state()
        final = bench.run_full()
        na = bench.params.na
        np.testing.assert_array_equal(final["x"][na:], state["x"][na:])

    def test_zeta_stays_above_the_shift(self, bench):
        # zeta = shift + 1/(x . z) with A SPD, so x . z = x . A^{-1} x > 0
        state = bench.initial_state()
        for _ in range(bench.total_steps):
            state = bench._advance(state)
            zeta = float(ops.to_numpy(bench.output(state)))
            assert np.isfinite(zeta)
            assert zeta > bench.params.shift

    def test_run_and_verify_passes(self, bench):
        assert bench.run_and_verify().passed

    def test_verification_fails_on_corrupted_iterate(self, bench):
        final = bench.run_full()
        final["x"] = np.array(final["x"], copy=True)
        final["x"][10] += 0.05
        assert not bench.verify(final).passed


class TestCriticality:
    def test_only_declared_tail_uncritical(self, bench, result):
        mask = result.variables["x"].mask
        na = bench.params.na
        assert mask[:na].all()
        assert not mask[na:].any()
        assert result.variables["x"].n_uncritical == 2

    def test_it_counter_rule_critical(self, result):
        assert result.variables["it"].method == "rule"
        assert result.variables["it"].n_uncritical == 0


class TestClassS:
    def test_paper_table2_row(self, runner_s):
        crit = runner_s.result("CG").variables["x"]
        assert (crit.n_uncritical, crit.n_elements) == (2, 1402)
