#!/usr/bin/env python3
# # The solver's engine, inspected
#
# Everything in this package reduces to dominant eigenpairs of nonnegative
# matrices. This script pokes at the machinery directly: the Krylov solver,
# its convergence diagnostics, a cross-check against a dense eigensolver,
# and the irreducibility test that guards uniqueness.

import numpy as np

from bicentral import (
    PowerSettings,
    compute_necs,
    is_irreducible,
)

rng = np.random.default_rng(11)
M = rng.uniform(0.1, 2.0, size=(5, 5))

# ## Krylov solver vs. a dense eigensolver
#
# compute_necs runs restarted Arnoldi: it builds an orthonormal basis of
# v, M v, M^2 v, ... from the normalized ones vector and takes the Perron
# Ritz pair of the small Hessenberg matrix M projects to. numpy.linalg.eig
# computes the whole spectrum of M itself (LAPACK's QR algorithm). For a
# positive matrix the largest real eigenvalue is the dominant one, and its
# eigenvector, sign-fixed and normalized, is what the solver converges to.
# Agreement to ~1e-10 is strong evidence both are right.

result = compute_necs(M, PowerSettings(tolerance=1e-12))
v_krylov, lam_krylov, report = result.c, result.eigenvalue, result.convergence
eigenvalues, eigenvectors = np.linalg.eig(M)
top = int(np.argmax(np.where(np.isreal(eigenvalues), eigenvalues.real, -np.inf)))
lam_eig = float(eigenvalues[top].real)
v_eig = eigenvectors[:, top].real
v_eig = v_eig * np.sign(v_eig.sum()) / np.linalg.norm(v_eig)
print("eigenvalue (Krylov):", lam_krylov)
print("eigenvalue (eig)   :", lam_eig)
print("vector difference  :", np.abs(v_krylov - v_eig).max())

# ## Convergence diagnostics
#
# The report counts products with M and records the relative Ritz residual
# ||M x - theta x|| / theta after products 1, 4 and 8 of the first cycle and
# 2, 4 and 8 of each restart, and after a cycle's last product (here the 5
# products span R^5, so the last one is exact). The rate estimate is
# the Ritz ratio |theta_2| / theta_1, the subdominant/dominant eigenvalue
# ratio as the Krylov space sees it.

print("\nproducts      :", report.iterations)
print("final residual:", report.final_residual)
print("rate estimate :", report.rate_estimate)
print("last residuals:", [f"{r:.2e}" for r in report.residual_trace[-5:]])

# ## Irreducibility guards uniqueness
#
# A strongly connected nonzero pattern guarantees a unique positive rating
# vector. A one-way chain is not strongly connected, and the rating
# function refuses it rather than return an arbitrary answer.

chain = np.array([[0.0, 1.0], [0.0, 0.0]])
cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
print("\nchain irreducible:", is_irreducible(chain))
print("cycle irreducible:", is_irreducible(cycle))

ratings = compute_necs(cycle)
print("cycle ratings    :", ratings.c, "eigenvalue", ratings.eigenvalue)

try:
    compute_necs(chain)
except Exception as exc:
    print("chain rejected   :", type(exc).__name__, "-", exc)
