"""
The exact polynomial oracle
===========================

Every intersection number in this package can be recomputed from sparse
integer polynomials: each class has a polynomial representative, products
of representatives expand back into the basis, and the coefficient of the
point class is the signed sum of the staircase rearrangements in one
pruned product of representatives.  The oracle is deliberately
independent of the tableau combinatorics used elsewhere, so the two
routes check each other.
"""

from flaghorn import (
    FlagType,
    SparsePolynomial,
    divided_difference,
    expand_in_schubert_basis,
    grassmannian_flag,
    intersection_number,
    monk_expansion,
    schubert_polynomial,
    structure_constants_pair,
)

# polynomial representatives of small codimension indices
for w in [(1, 2), (2, 1), (1, 3, 2), (3, 2, 1)]:
    print("representative of", w, "is", schubert_polynomial(w))

# the representatives are built by divided differences, which subtract a
# variable swap and divide by the variable difference, exactly
p = SparsePolynomial.monomial((2, 1))  # x1^2 * x2
print("d_2 of x1^2*x2 =", divided_difference(p, 2))
print("d_1 of x1^2*x2 =", divided_difference(p, 1))

# products of representatives expand with nonnegative integer weights
x1 = SparsePolynomial.variable(1)
product = schubert_polynomial((2, 1)) * schubert_polynomial((1, 3, 2))
print("expansion of a product:", expand_in_schubert_basis(product))

# Monk's rule gives the same expansions by swapping entries, with no
# polynomial arithmetic at all
assert expand_in_schubert_basis(schubert_polynomial((2, 1)) * (x1)) == monk_expansion(
    (2, 1), 1
)
print("monk expansion of (2,1,3) times x1 + x2:", monk_expansion((2, 1, 3), 2))

# on the Grassmannian of 2-planes in C^4 the class of lines meeting a
# fixed line squares to the sum of the two codimension-2 classes
gr = grassmannian_flag(2, 4)
sigma1 = (2, 4, 1, 3)
print("square of the first special class:", structure_constants_pair(sigma1, sigma1, gr))

# a classic count: exactly 2 lines in projective 3-space meet four
# general lines
print("four lines in C^4:", intersection_number((sigma1,) * 4, gr))
assert intersection_number((sigma1,) * 4, gr) == 2

sigma1_5 = (3, 5, 1, 2, 4)
gr25 = grassmannian_flag(2, 5)
print("six incidences in C^5:", intersection_number((sigma1_5,) * 6, gr25))
assert intersection_number((sigma1_5,) * 6, gr25) == 5

# the same machinery runs on any flag manifold
flag = FlagType((1, 2), 3)
print(
    "a product on the complete flag manifold of C^3:",
    structure_constants_pair((2, 3, 1), (3, 1, 2), flag),
)
