"""Dense reference for ``multifem.krylov.hs_norm``: the H^s norm of a
pencil (S, M) from the generalized eigenproblem S u = lam M u, U^T M U = I.

The norm is M U lam^s U^T M (S at s = 1, M at s = 0) and its inverse
U lam^-s U^T, both dense and exact up to the rounding of ``eigh``.
"""
import scipy.linalg


class DenseHsNorm:
    def __init__(self, M, S):
        self.M = M.toarray()
        self.eigenvalues, self.eigenvectors = scipy.linalg.eigh(S.toarray(), self.M)

    def forward(self, s):
        MU = self.M @ self.eigenvectors
        return (MU * self.eigenvalues ** s) @ MU.T

    def inverse(self, s):
        U = self.eigenvectors
        return (U * self.eigenvalues ** -s) @ U.T
