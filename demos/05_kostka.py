"""Kostka-Foulkes polynomials two ways, plus the invariant-dimension count.

The charge route sums q^charge over column-strict tableaux; the
alternating route sums signed q-partition counts over a symmetric group.
They are computed from unrelated formulas and must agree coefficient by
coefficient.
"""
from minuscule import (
    WeightSequence,
    build_root_system,
    charge,
    invariant_dim,
    kostka_foulkes,
    q_kostant,
)

print("charge of some words:")
for word in ("321", "312", "213", "123"):
    print(f"  {word}: {charge(int(c) for c in word)}")

print("\ncharge route vs alternating route:")
for nu, gamma in [((2, 2), (1, 1, 1, 1)),
                  ((3, 3), (2, 2, 1, 1)),
                  ((4, 2, 1), (2, 2, 2, 1)),
                  ((2, 2, 2), (1,) * 6)]:
    a, b = kostka_foulkes(nu, gamma), q_kostant(nu, gamma)
    print(f"  K[{nu}, {gamma}] = {a}   (oracle agrees: {a == b})")

print("\ninvariant dimensions, as dominant walks counted by weight:")
a1 = build_root_system("A", 1)
for m in (2, 4, 6, 8, 10):
    dim = invariant_dim(WeightSequence(a1, ((1,),) * m))
    print(f"  A1, omega^{m}: {dim}")
e6 = build_root_system("E", 6)
pair = (e6.fundamental_weight(1), e6.fundamental_weight(6))
print("  E6, (omega_1 omega_6)^2:", invariant_dim(WeightSequence(e6, pair * 2)))
