"""Singular-mass oscillator toolkit.

Classical, semiclassical, and quantum analysis of
H = x^4 p^2 / 4 + lam x^2, a position-dependent mass system with
m(x) = 2/x^4: exact trajectories and their finite-time singularities,
finite-part WKB quantization of the coupling, the Bessel reduction of the
ordered wave equation, parity-driven coupling quantization, continuum
overlaps, and box-regularized spectra.
"""
