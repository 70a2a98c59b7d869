"""Bloch-periodic FEM eigensolvers for 2D photonic-crystal unit cells.

Modules
-------
mesh        periodic Q2 DOF lattice, disk indicator, prolongation, FFT
            inverse of operators cell-periodic by construction, read from
            the rows of cell (0, 0)
assembly    Bloch-shifted stiffness and weighted mass matrices (TM);
            checks the symmetry of its element matrices once per build
linalg      wrapper for matrices Hermitian by construction (unchecked),
            factorization, Rayleigh quotients, dual-norm residuals (by FFT
            where the weights make K + M cell-periodic, as unit weights
            do), and the upper-bound dual norm of K + M_w, preconditioned
            by the FFT inverse of K + w_min*M, that the power-family
            reference runs on without a factorization
dispersion  permittivity models and their rational-function realizations
eigeniter   inverse power iteration (with/without Rayleigh scaling), LOPCG,
            Arnoldi, and ``iterate``, the one loop every solver leg runs in
companion   linearized extended eigenproblem for rational permittivities
newton      bordered Newton iteration and residual inverse iteration for
            the nonlinear eigenproblem
driver      run configs, refinement schedules, trace CSV output, k-sweeps
"""

__version__ = "0.1.0"
