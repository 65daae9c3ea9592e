"""Tour of the root-system kernel: Cartan data, orbits, minuscule weights.

Everything is an integer tuple in the fundamental-weight basis, and every
operation is exact.
"""
from minuscule import (
    build_root_system,
    in_root_lattice,
    minuscule_weights,
    simple_reflection,
    to_dominant,
    two_rho_pairing,
    weyl_orbit,
)

for family, rank in [("A", 2), ("B", 3), ("D", 4), ("E", 6), ("G", 2)]:
    rs = build_root_system(family, rank)
    names = [w.index(1) + 1 for w in minuscule_weights(rs)]
    print(f"{rs}: {len(rs.positive_coroots)} positive coroots, "
          f"minuscule fundamental weights {names or 'none'}")

a2 = build_root_system("A", 2)
print("\nA2 Cartan matrix:", a2.cartan)

w = (-1, 0)
dom, word = to_dominant(a2, w)
print(f"straightening {w}: dominant representative {dom} via word {word}")
print("orbit of omega_1:", weyl_orbit(a2, (1, 0)))
print("reflection s_1(omega_1):", simple_reflection(a2, 1, (1, 0)))

print("\npairings with the positive-coroot sum:")
for i in (1, 2):
    print(f"  <omega_{i}, 2 rho_vee> =", two_rho_pairing(a2, a2.fundamental_weight(i)))

print("\nroot-lattice membership in A2:")
for w in [(1, 0), (1, 1), (3, 0), (2, 2)]:
    print(f"  {w}: {in_root_lattice(a2, w)}")
