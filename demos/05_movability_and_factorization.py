"""
Movability, the filtered product, and factorization
===================================================

A tuple of classes with complementary codimensions either meets
transversally under the Levi group action or it does not.  Movable
tuples are detected by three equivalent tests, their coefficients define
a degenerate product on the cohomology ring, and each such coefficient
factors into one tableau count per step of the flag.
"""

from flaghorn import (
    FlagType,
    bk_product,
    bk_structure_constant,
    complete_flag,
    dual,
    enumerate_levi_movable,
    factor_full,
    factor_once,
    intersection_number,
    is_levi_movable,
    run_suite,
    structure_constants_pair,
)

f3 = complete_flag(3)

# a movable pair: all three tests agree and report a coefficient
pair = ((2, 1, 3), (2, 3, 1))
report = is_levi_movable(pair, f3, method="cross_check")
print(pair, "movable:", report.movable, "coefficient:", report.coefficient)
assert report.condition_i and report.condition_iii and report.condition_iv

# a triple with a nonzero classical product that is not movable; the
# report carries a human-readable witness for the failure
triple = ((3, 1, 2), (3, 1, 2), (2, 3, 1))
report = is_levi_movable(triple, f3, method="cross_check")
print(triple, "movable:", report.movable)
print("  witness:", report.failing_witness)
print("  classical coefficient:", intersection_number(triple, f3))
assert not report.movable
assert intersection_number(triple, f3) == 1

# the filtered structure constants keep movable coefficients and kill
# the rest, deforming the ring while staying associative
w, u = (3, 1, 2), (3, 1, 2)
v = dual((2, 3, 1), f3)
print("classical versus filtered constant:", intersection_number(triple, f3), "->",
      bk_structure_constant(w, u, v, f3))
print("full classical product:", structure_constants_pair((2, 3, 1), (3, 1, 2), f3))
print("full filtered product:", bk_product((2, 3, 1), (3, 1, 2), f3))

# every movable tuple on a two-step flag manifold in C^4, with
# coefficients
flag = FlagType((1, 2), 4)
for classes, coefficient in enumerate_levi_movable(flag, 2):
    print("movable:", classes, "coefficient", coefficient)

# one factorization step peels off the Grassmannian of the first step
classes = ((2, 3, 1), (2, 1, 3))
c1, projected, c_fiber, fiber_classes, fiber = factor_once(classes, FlagType((1, 2), 3))
print("base coefficient", c1, "on the projected tuple", projected)
print("fiber coefficient", c_fiber, "on", fiber_classes, "over", fiber)

# the full tree writes the coefficient as a product of tableau
# counts, one per step, on shrinking Grassmannians
tree = factor_full(classes, FlagType((1, 2), 3), verify_with_oracle=True)
print("tree coefficient:", tree.coefficient)
for leaf in tree.leaf_factors():
    print("  leaf", leaf.space, "partitions", leaf.partitions,
          "coefficient", leaf.coefficient)

# the named verification suites bundle these checks; here is the
# smallest slice of the equivalence sweep
result = run_suite("thm1", 3)
print("suite", result.name, "passed:", result.passed)
for line in result.lines:
    print(" ", line)
