"""Seeded surveys over parameter families: genericity in the large.

The compatible locus has codimension one inside the nine-parameter space
of defining matrices, so random sampling should essentially never land on
it.  Surveys make that quantitative, and they also expose a small-box
artifact: with entries drawn from [-9, 9], coincidences among small
integers regularly produce position-degenerate non-webs whose obstruction
polynomials vanish for structural reasons.  Widening the box makes the
artifact disappear.  Every survey is deterministic for its seed.
"""

from linearwebs import FamilySpec, agw_verdict, sample_family, survey
from linearwebs.families import derive_seed
from linearwebs.webmodel import general_position_audit

print("named families fix zero entries of A:")
for name in ("B8", "B7", "B6"):
    spec = FamilySpec(name)
    A = sample_family(spec, derive_seed(1, 0)).A
    print(f"  {name}: constraints {spec.constraints} -> sample {A.to_json()}")

print("\ngeneric survey, narrow box [-9, 9]:")
narrow = survey(FamilySpec("generic", entry_bound=9), count=300, seed=7)
print(narrow.to_text())

exceptions = [i for i in range(300)
              if agw_verdict(sample_family(
                  FamilySpec("generic", entry_bound=9),
                  derive_seed(7, i))) != "not-AGW"]
degenerate = sum(
    not general_position_audit(sample_family(
        FamilySpec("generic", entry_bound=9), derive_seed(7, i))).general_position
    for i in exceptions)
print(f"\nexceptions that fail the general-position audit: "
      f"{degenerate}/{len(exceptions)} (all of them: not one is a genuine web)")

print("\nsame survey, wide box [-50, 50]:")
wide = survey(FamilySpec("generic", entry_bound=50), count=300, seed=7)
print(wide.to_text())

print("\nB8 family survey (the published determinant form rarely vanishes):")
print(survey(FamilySpec("B8"), count=200, seed=3).to_text())
