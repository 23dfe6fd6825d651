import numpy as np
import pytest
import scipy.sparse as sp

from multifem.opalg import (
    BlockMat, CollapseSizeError, Identity, InverseHandle, Matrix,
    NotCollapsibleError, OpError, Product, Scaled, Sum, Transpose, Zero, block_diag_mat, collapse,
)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def random_sparse(rng, r, c, density=0.4):
    m = sp.random(r, c, density=density, random_state=np.random.RandomState(int(rng.integers(1 << 30))))
    return (m + 0.1 * sp.eye(r, c)).tocsr()


class TestActions:
    def test_product_action_is_composition(self, rng):
        A = random_sparse(rng, 5, 7)
        B = random_sparse(rng, 7, 4)
        x = rng.standard_normal(4)
        expr = Product([Matrix(A), Matrix(B)])
        assert np.array_equal(expr.matvec(x), A @ (B @ x))

    def test_identity(self, rng):
        x = rng.standard_normal(6)
        assert np.array_equal(Identity(6).matvec(x), x)

    def test_block_diag_action_concatenates(self, rng):
        A = random_sparse(rng, 3, 3)
        B = random_sparse(rng, 4, 4)
        x = rng.standard_normal(7)
        expr = BlockMat([[Matrix(A), Zero(3, 4)], [Zero(4, 3), Matrix(B)]])
        out = expr.matvec(x)
        assert np.allclose(out[:3], A @ x[:3]) and np.allclose(out[3:], B @ x[3:])

    def test_sum_and_scaled(self, rng):
        A = random_sparse(rng, 5, 5)
        x = rng.standard_normal(5)
        expr = Sum([Matrix(A), Scaled(-1.0, Matrix(A))])
        assert np.abs(expr.matvec(x)).max() < 1e-14

    @pytest.mark.parametrize("dense", [False, True])
    def test_transpose_of_leaf_applies_its_transposed_copy(self, rng, dense):
        A = random_sparse(rng, 6, 5)
        x = rng.standard_normal(6)
        leaf = Transpose(Matrix(A.toarray() if dense else A))
        assert leaf.shape == (5, 6)
        ref = (A.toarray().T if dense else A.T.tocsr()) @ x
        assert np.array_equal(leaf.matvec(x), ref)
        assert np.array_equal(leaf.matvec(x), ref)      # the cached copy
        with pytest.raises(OpError):
            leaf.matvec(np.zeros(5))

    def test_transpose_of_non_leaf_rejected(self, rng):
        A = random_sparse(rng, 6, 5)
        B = random_sparse(rng, 5, 4)
        for e in (Product([Matrix(A), Matrix(B)]), Scaled(2.0, Matrix(A)),
                  Transpose(Matrix(A)), Identity(3)):
            with pytest.raises(OpError, match="matrix leaves"):
                Transpose(e)

    def test_zero_absorbers(self, rng):
        A = random_sparse(rng, 4, 4)
        x = rng.standard_normal(4)
        prod = Product([Matrix(A), Zero(4, 4)])
        assert np.abs(prod.matvec(x)).max() == 0.0
        s = Sum([Matrix(A), Zero(4, 4)])
        assert np.array_equal(s.matvec(x), A @ x)

    def test_dimension_mismatch_messages(self, rng):
        A = random_sparse(rng, 4, 5)
        with pytest.raises(OpError, match=r"\(4, 5\)"):
            Product([Matrix(A), Matrix(A)])
        with pytest.raises(OpError):
            Sum([Matrix(A), Zero(5, 4)])
        with pytest.raises(OpError):
            Matrix(A).matvec(np.zeros(4))


class TestCollapse:
    def test_collapse_transpose(self, rng):
        A = random_sparse(rng, 5, 3)
        assert np.abs(collapse(Transpose(Matrix(A))).toarray() - A.T.toarray()).max() == 0.0

    def test_collapse_matches_action(self, rng):
        A = random_sparse(rng, 6, 4)
        B = random_sparse(rng, 4, 6)
        C = random_sparse(rng, 6, 6)
        expr = Sum([Product([Matrix(A), Matrix(B)]), Scaled(0.5, Matrix(C))])
        dense = collapse(expr).toarray()
        for _ in range(100):
            x = rng.standard_normal(6)
            ref = expr.matvec(x)
            err = np.abs(dense @ x - ref).max()
            assert err <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_collapse_sum_with_negation_is_zero(self, rng):
        A = random_sparse(rng, 5, 5)
        out = collapse(Sum([Matrix(A), Scaled(-1.0, Matrix(A))]))
        assert np.abs(out.toarray()).max() == 0.0

    def test_block_diag_collapse_matches_placement(self, rng):
        A = random_sparse(rng, 3, 3)
        B = random_sparse(rng, 2, 2)
        out = collapse(block_diag_mat([Matrix(A), Matrix(B)])).toarray()
        oracle = np.zeros((5, 5))
        oracle[:3, :3] = A.toarray()
        oracle[3:, 3:] = B.toarray()
        assert np.abs(out - oracle).max() == 0.0

    def test_inverse_handle_not_collapsible(self):
        h = InverseHandle(4, lambda x: x, label="lu")
        with pytest.raises(NotCollapsibleError, match="lu"):
            collapse(h)

    def test_collapse_size_guard(self, rng, monkeypatch):
        import multifem.opalg as op
        monkeypatch.setattr(op, "COLLAPSE_LIMIT", 10)
        A = random_sparse(rng, 10, 10, density=0.5)
        with pytest.raises(CollapseSizeError):
            collapse(Matrix(A))
        assert collapse(Matrix(A), force=True).shape == (10, 10)


class TestStructure:
    def test_block_diag_requires_square(self, rng):
        with pytest.raises(OpError):
            block_diag_mat([Matrix(random_sparse(rng, 3, 4))])

    def test_block_shape_validation(self, rng):
        A = Matrix(random_sparse(rng, 3, 3))
        B = Matrix(random_sparse(rng, 2, 2))
        with pytest.raises(OpError, match=r"block \(0,1\)|\(0, 1\)"):
            BlockMat([[A, B], [B, A]])

    def test_operator_sugar(self, rng):
        A = random_sparse(rng, 4, 4)
        B = random_sparse(rng, 4, 4)
        x = rng.standard_normal(4)
        expr = 2.0 * Matrix(A) @ Matrix(B) + Transpose(Matrix(A))
        ref = 2.0 * (A @ (B @ x)) + A.T @ x
        assert np.abs(expr.matvec(x) - ref).max() < 1e-13

    def test_inverse_handle_identity(self):
        h = InverseHandle(3, lambda x: x, label="id")
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(h.matvec(x), x)
        with pytest.raises(OpError):
            h.matvec(np.zeros(4))
