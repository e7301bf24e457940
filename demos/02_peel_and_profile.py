"""Peel a small graph and read the per-size profile.

The selector starts from everything the similarity threshold allows, then
repeatedly drops the member contributing least, remembering the best group
seen at every size. The profile is what makes later size decreases free.
"""

from msel import ConstraintPair, PeelStats, SimGraph, modified_sgsel

g = SimGraph(6, [
    (0, 2, 0.2), (0, 4, 0.2), (0, 5, 0.2),
    (2, 4, 0.3), (2, 5, 0.4), (4, 5, 0.8),
    (1, 3, 0.2),
])
c = ConstraintPair(s=0.1, p=1)

stats = PeelStats()
best, profile = modified_sgsel(g, c, stats=stats)

print(f"constraints: group size > {c.p}, member edges > {c.s}")
print(f"best group: {sorted(best.members)}  alpha={best.alpha:.4f}")
print(f"work done: {stats.removals} removals, {stats.pops} heap pops (a peel's last 128 removals take none)")
print()
print("profile (best group recorded at each size):")
for size in profile.sizes():
    members = sorted(profile.members_at(size))
    print(f"  size {size}: alpha={profile.alpha_at(size):.4f}  members={members}")

# tightening the similarity floor shrinks the candidate pool up front
tight, _ = modified_sgsel(g, ConstraintPair(s=0.35, p=1))
print()
print(f"same graph at s=0.35: {sorted(tight.members)}  alpha={tight.alpha:.4f}")
