"""Growth engines that no command runs: the Ruzsa covering witness, left-coset
labels with the coset trajectory, and the first doubling scale of a scan.

They work element by element, through ``Ball.elements`` and ``group.mul``, on
small groups, and the acceptance criteria and the cross-checks read them.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from cayleylab.groups import OracleError, ResourceRefusal
from cayleylab.growth import closed_ball, enumerate_ball


def first_scale(scan, K):
    """The smallest n with |S^{2n+1}| <= K |S^n| in a DoublingScan, or None."""
    return next((n for n, ratio in scan.ratios_2n1 if ratio <= K), None)


def ball_index(ball) -> dict:
    """Each element's position in the ball."""
    return {x: i for i, x in enumerate(ball.elements)}


# ---------------------------------------------------------------------------
# Ruzsa covering witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuzsaWitness:
    """Greedy disjoint-translate witness X in S^{4n} with verified certificates."""

    n: int
    witness: tuple = field(repr=False)
    ball_n: int
    ball_4n: int
    ball_5n: int
    disjoint_verified: bool
    covering_verified: bool
    _shown = ("witness_size", "ratio_bound")

    @property
    def witness_size(self) -> int:
        return len(self.witness)

    @property
    def ratio_bound(self) -> Fraction:
        return Fraction(self.ball_5n, self.ball_n)


def approximate_group_witness(group, gens, n: int) -> RuzsaWitness:
    """Greedy maximal X in S^{4n} with the translates xS^n pairwise disjoint.

    Verifies exhaustively that S^{4n} is covered by X S^{2n} and that the
    translates are disjoint, which forces |X| <= |S^{5n}|/|S^n|.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # the closed ball, read to radius 5n: it is sphere-major, so radius <= r
    # is position < |S^r|, clamped at the closure
    ball = enumerate_ball(group, gens)
    if ball.capped:
        raise ResourceRefusal(f"ball truncated before radius {5 * n}")
    small = ball.elements[: ball.ball(n)]
    chosen: list = []
    occupied = set()
    for x in ball.elements[: ball.ball(4 * n)]:
        translate = {group.mul(x, b) for b in small}
        if occupied.isdisjoint(translate):
            chosen.append(x)
            occupied |= translate
    disjoint_ok = len(occupied) == len(chosen) * len(small)

    covering_ok = True
    index = ball_index(ball)
    within_2n = ball.ball(2 * n)
    inv_chosen = [group.inv(x) for x in chosen]
    for z in ball.elements[: ball.ball(4 * n)]:
        if not any(index.get(group.mul(xi, z), math.inf) < within_2n for xi in inv_chosen):
            covering_ok = False
            break

    witness = RuzsaWitness(
        n, tuple(chosen), ball.ball(n), ball.ball(4 * n), ball.ball(5 * n), disjoint_ok, covering_ok
    )
    if witness.witness_size * witness.ball_n > witness.ball_5n:
        raise RuntimeError("disjointness bound |X||S^n| <= |S^{5n}| violated")
    return witness


# ---------------------------------------------------------------------------
# Coset saturation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetSaturation:
    """Trajectory of left cosets met by S^j and its stabilization radius."""

    r: int
    trajectory: tuple[int, ...]
    index: int


def left_coset_labels(ball, sub) -> np.ndarray:
    """Label of the left coset xH of each element of a closed ball of G, in order of first appearance.

    H is the set of members, so the identity's coset H gets label 0.  Raises
    OracleError when the identity is not a member, when |H| does not divide
    |G|, or when two cosets overlap (H is then no subgroup).
    """
    group = ball.group
    if not sub.contains(ball.elements[0]):
        raise OracleError(f"{sub.name}: identity not a member")
    members = [h for h in ball.elements if sub.contains(h)]
    if ball.size % len(members) != 0:
        raise OracleError(f"{sub.name}: membership count {len(members)} does not divide {ball.size}")
    index = ball_index(ball)
    labels = np.full(ball.size, -1, dtype=np.int64)
    label = 0
    for i, x in enumerate(ball.elements):
        if labels[i] >= 0:
            continue
        coset = [index[group.mul(x, h)] for h in members]
        if (labels[coset] >= 0).any():
            raise OracleError(f"{sub.name}: left cosets overlap, so it is not a subgroup")
        labels[coset] = label
        label += 1
    return labels


def coset_saturation(group, gens, sub) -> CosetSaturation:
    """Smallest r with S^{r+1} Gamma = S^r Gamma, asserting G = S^r Gamma."""
    ball = closed_ball(group, gens)
    # labels appear in ball order, so S^j meets 1 + (the largest label in S^j) cosets
    largest = np.maximum.accumulate(left_coset_labels(ball, sub))
    trajectory = tuple(int(c) + 1 for c in largest[np.subtract(ball.ball_sizes, 1)])
    index = trajectory[-1]
    r = 0
    while r + 1 < len(trajectory) and trajectory[r + 1] != trajectory[r]:
        r += 1
    if trajectory[r] != index:
        raise OracleError(f"{sub.name}: trajectory stabilized at {trajectory[r]} of {index} cosets")
    return CosetSaturation(r, trajectory, index)
