"""Reference code the tests check qortho against, reached by no command.

``askey_wilson`` is the parent family the q-para-Racah polynomials are
truncated from: its explicit series, recurrence and q-difference operator
are the oracles of the truncation and tiny-t substitution tests.  The other
modules hold, under the name of the qortho module they exercise, the
positivity-inequality report, the factorised characteristic polynomial and
the per-point series form of the explicit expansion of a q-para-Racah
family (``para_racah``), the monic q-Racah evaluation and the single
lattice of the collapsed family (``connections``), the (a z, a/z; q)_k
basis factor, the record of a spelled-out terminating series at its stated
degree and the same series summed term by term (``qseries``), and the
implicit QL eigenvalues of a Jacobi matrix (``spectral``).  ``coefficients`` holds the per-entry
coefficient formulas the coefficient passes must equal bit for bit.
"""
