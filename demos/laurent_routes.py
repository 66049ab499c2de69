"""The series route of every criterion-1 form, without evaluating a tail.

For each form of the criterion-1 grid (a = 7, 9, 11, 13; r = 1, 2 with
6r <= a; n = 1..6) at PrecisionContext(250, 25), prints how
``form_residual`` evaluates its defining series: the route, the split
point T, the Laurent coefficient count K the search ends at, the
certified log10 tail bound, and the two sides of the comparison
``_route`` makes: the direct head's weighted terms w (T - t0) (w = 3 for
the double-derived kind; "-" where direct summation cannot reach the
target) and 0.41 degQ^2.  The Laurent tail splits at
T = max(2 t0, 48, ceil(-tol)); on this grid that is the target's 262
digits for every form, where the power sums start their expansion.
Only ``_route`` runs: Laurent tails are built and divided as far as the
search goes, but no power sum is taken.

Run:  python demos/laurent_routes.py
"""
from zetaforms import FormSpec, PrecisionContext, build_summand, table_for
from zetaforms import highprec
from zetaforms.linear_forms import DOUBLE_DERIVED, zeta_form_derived, zeta_form_plain

ctx = PrecisionContext(digits=250, guard=25)
tol = -(ctx.digits + ctx.guard // 2)

print(f"{'spec':>11} {'kind':>14} {'route':>7} {'T':>5} {'K':>5} "
      f"{'bound':>8} {'w head':>8} {'0.41 dQ^2':>9}")
for a in (7, 9, 11, 13):
    for r in (1, 2):
        if 6 * r > a:
            continue
        for n in range(1, 7):
            spec = FormSpec(a, r, n)
            table = table_for(spec)
            t0 = build_summand(spec).first_nonzero_term()
            for form in (zeta_form_plain(table), zeta_form_derived(table)):
                route = highprec._route(spec, form.kind, t0, tol)
                T = highprec._direct_split(spec, form.kind, t0, tol)
                weight = 3 if form.kind == DOUBLE_DERIVED else 1
                head = "-" if T is None else weight * (T - t0)
                degQ = a * (2 * n + 1)
                name = "direct" if route.K is None else "laurent"
                print(f"{str((a, r, n)):>11} {form.kind:>14} {name:>7} {route.T:>5} "
                      f"{route.K or '-':>5} {route.bound:>8.1f} {head:>8} "
                      f"{highprec._DIRECT_PER_DEGQ2 * degQ ** 2:>9.0f}")
