"""Exact verification of modular anomaly-cancellation identities.

The package reconstructs the characteristic q-series of spin, spin with
auxiliary bundle, and spin-c with line bundle settings along two independent
routes (lambda-ring theta-power bundles and Jacobi theta quotients), fits
them against the echelon basis of modular forms in E4 and E6, verifies
the identity catalog as exact polynomial identities, and extracts the
divisibility moduli of the index corollaries.  All arithmetic is exact over
the rationals.

The package root exports nothing and imports nothing: each public name is
imported from the module that defines it (cases, checks and reports from
`anomaly.verifier`, the command from `anomaly.cli`).
"""
