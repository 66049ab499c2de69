"""Desk-scale Diophantine verifiers on the classical fixtures.

Run:  python demos/diophantine_checks.py
"""
import math

from mpmath import mp

from zetaforms.criterion import oscillation_subsequence
from zetaforms.diophantine import (
    projective_distance_sweep,
    siegel_verify,
    sqrt2_convergents,
    type2_box_check,
)

golden = (1 + math.sqrt(5)) / 2

rep = projective_distance_sweep(golden, tau=1.0, eps=0.2, p_max=200_000)
print(f"projective distance on the golden line: decided {rep.checked} points "
      f"(the convergents above the burn-in), "
      f"violations above ||P|| = {rep.norm_threshold}: {len(rep.violations)}; "
      f"tightest observed exponent {rep.best_exponent:.4f} (bound -2.2)")

cs = sqrt2_convergents(26)
with mp.workdps(60):
    xi = mp.sqrt(2)
t2 = type2_box_check(xis=[xi], forms=[[p, q] for p, q in cs],
                     qseq=[q for _p, q in cs], taus=[1.0], eps=0.2, Q=100)
print(f"\ntype-II box for sqrt(2): decay slope {t2.decay_slopes[0]:.4f} "
      f"(target -1), boxes checked {t2.boxes_checked}, violations {len(t2.violations)}")

forms = []
qseq = []
for (p0, q0), (p1, q1) in zip(cs, cs[1:]):
    forms.append([[q0, -p0], [q1, -p1]])
    qseq.append(q0)
sg = siegel_verify(forms, qseq, points=[[xi, 1]], taus=[1.0],
                   subspace_basis=[[1, 0], [0, 1]])
print(f"\nsiegel determinants (consecutive sqrt(2) convergents): "
      f"all nonzero: {all(r[1] != 0 for r in sg.rows_)}; "
      f"bound exponent {sg.bound_slope:.3f} vs d-k-sum(tau) = {sg.expected_bound_slope}")

osc = oscillation_subsequence([math.pi * golden], [0.0], 0.5, 10_000)
print(f"\noscillation subsequence for omega = pi*golden, eps = 0.5: "
      f"accepted fraction {osc.accepted_fraction:.4f} (2/3 expected), "
      f"lambda estimate {osc.lambda_estimate:.4f}")
