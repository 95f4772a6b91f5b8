"""How many words satisfy the window constraint, and how well the
closed forms and bounds track the true (exact) numbers."""

from lpacodes import build_report, CountQuery, Family

print("family A = words whose every l-window has least period >= p\n")

print(f"{'q':>2} {'n':>3} {'l':>3} {'p':>2} {'exact':>8} {'formula':>8} "
      f"{'lower':>8} {'upper':>8}")
for q, n, l, p in [
    (2, 6, 6, 3),
    (2, 7, 6, 3),
    (2, 8, 6, 3),
    (2, 10, 6, 2),
    (2, 12, 8, 4),
    (2, 14, 8, 4),
    (3, 8, 5, 2),
    (3, 9, 5, 3),
]:
    r = build_report(CountQuery(Family.LPA, q, n, l=l, p=p))
    fmt = lambda v: "-" if v is None else str(v)
    print(f"{q:>2} {n:>3} {l:>3} {p:>2} {fmt(r.exact):>8} {fmt(r.formula):>8} "
          f"{fmt(r.lower_bound):>8} {fmt(r.upper_bound):>8}")
    assert not r.violations()

print("""
Notes:
 * formula is exact where a closed form applies (whole-word windows, or
   word length within roughly twice the window).
 * lower comes from an existence argument: once it reaches q^(n-1), a
   one-symbol-redundancy encoder is guaranteed to exist at those
   parameters.
 * upper relaxes the constraint to zero-run-limited difference words;
   it is exact for p = 2 and p = 3.
""")

# The existence threshold in action: the lower bound certifies the code
# used by derive_params long before enumeration becomes possible.
from fractions import Fraction

from lpacodes import derive_params, lpa_count_lower

for n in (100, 10**4, 10**6):
    params = derive_params(2, n, 4)
    bound = lpa_count_lower(2, n + 1, params.l, 4)
    ratio = float(Fraction(bound, 2**n))
    print(f"n={n}: l={params.l}, lower bound = {ratio:.3f} x 2^{n} "
          f"(>= 1 certifies the code)")
