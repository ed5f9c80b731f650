"""Workbench for finite commutative idempotent groupoids.

Its modules cover Cayley-table algebra and term evaluation (core), the sixty
Bol-Moufang identities and their variety classes (bolmoufang), exhaustive
model enumeration (search), congruence lattices (congruences), semilattice
decompositions of groupoids (plonka), a small CSP engine (csp), and the
verification suites plus command line front end (suites, cli).
"""
