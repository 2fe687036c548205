"""Canonical example families with their standard generating sets.

Each instance couples a group handle with the family's default symmetric
generating set and a short provenance note describing the construction.  The
``standard_zoo`` grid is the fixed population that the verification suites
iterate over (filtered by order where a suite has a size cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .groups import GeneratingSet, Group, build_group, parse_group_spec

__all__ = [
    "FamilyInstance",
    "construct_family",
    "standard_zoo",
    "zoo_listing",
    "LggReport",
    "verify_lgg",
]

_PROVENANCE = {
    "cyclic": "cyclic group with unit step generator",
    "abelian": "product of cyclic groups with coordinate step generators",
    "ut": "upper unitriangular matrices over a prime field, superdiagonal generators",
    "lamplighter": "cyclic walker over Z/2 lamps; move and switch generators",
    "symfp-L": "symmetric group acting on F_p^n; long cycle, transposition, first basis vector",
    "symfp-Gprime": "sum-zero-vector subgroup of the symfp product, projected generators",
    "symfp-G": "alternating sum-zero subgroup, Schreier generators from the index-2 overgroup",
    "freenil": "free nilpotent group modelled as truncated polynomial units",
    "product": "direct product carrying the product of the factor generating sets",
}


@dataclass(frozen=True)
class FamilyInstance:
    label: str
    group: Group
    gens: GeneratingSet
    provenance: str

    @property
    def order(self) -> Optional[int]:
        return self.group.order

    @property
    def k(self) -> int:
        return self.gens.k


def construct_family(spec_text: str) -> FamilyInstance:
    """Group plus its family-default generating set for a spec string."""
    spec = parse_group_spec(spec_text)
    group = build_group(spec)
    gens = group.generating_set()
    if spec.family == "product":
        key = "product"
    elif spec.family == "symfp":
        key = f"symfp-{spec.variant}"
    else:
        key = spec.family
    return FamilyInstance(str(spec), group, gens, _PROVENANCE.get(key, key))


_ZOO_SPECS = (
    "cyclic:2",
    "cyclic:8",
    "cyclic:12",
    "cyclic:16",
    "cyclic:20",
    "cyclic:100",
    "abelian:4,4,9",
    "ut:dim=3,p=3",
    "ut:dim=3,p=5",
    "ut:dim=3,p=7",
    "ut:dim=3,p=11",
    "ut:dim=3,p=31",
    "ut:dim=4,p=3",
    "lamplighter:3",
    "lamplighter:4",
    "lamplighter:5",
    "lamplighter:6",
    "lamplighter:8",
    "symfp:n=2,p=3,variant=L",
    "symfp:n=2,p=3,variant=Gprime",
    "symfp:n=2,p=3,variant=G",
    "symfp:n=3,p=7,variant=L",
    "symfp:n=3,p=7,variant=Gprime",
    "symfp:n=3,p=7,variant=G",
    "symfp:n=4,p=5,variant=L",
    "symfp:n=4,p=5,variant=Gprime",
    "symfp:n=4,p=5,variant=G",
    "product(lamplighter:3)x(cyclic:8)",
)


def standard_zoo(max_order: Optional[int] = None) -> list[FamilyInstance]:
    """The fixed verification grid of finite groups of order at least 2, optionally capped by order."""
    out = []
    for text in _ZOO_SPECS:
        inst = construct_family(text)
        if inst.order is None or inst.order < 2:
            continue
        if max_order is not None and inst.order > max_order:
            continue
        out.append(inst)
    return out


def zoo_listing() -> list[dict]:
    rows = []
    for text in _ZOO_SPECS:
        inst = construct_family(text)
        rows.append({"spec": inst.label, "order": inst.order, "k": inst.k, "provenance": inst.provenance})
    return rows


# ---------------------------------------------------------------------------
# The three-group tower and its diameter bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LggReport:
    """Measured diameters of the tower L >= Gprime >= G with their bounds."""

    n: int
    p: int
    gamma_L: int
    gamma_prime: int
    gamma_0: int
    c_meas: float
    _shown = ("lower_L_ok", "lower_prime_ok", "lower_0_ok", "c_meas_ok", "ok")

    @property
    def lower_L_ok(self) -> bool:
        return (self.p - 1) / 2 <= self.gamma_L

    @property
    def lower_prime_ok(self) -> bool:
        return (self.p ** (1 - 1 / self.n) - 1) / 2 <= self.gamma_prime

    @property
    def lower_0_ok(self) -> bool:
        return self.p ** (1 - 1 / self.n) / 10 <= self.gamma_0

    @property
    def c_meas_ok(self) -> bool:
        return self.c_meas <= 8.0

    @property
    def ok(self) -> bool:
        return self.lower_L_ok and self.lower_prime_ok and self.lower_0_ok and self.c_meas_ok


def verify_lgg(n: int, p: int) -> LggReport:
    """Exact diameters of the three tower groups and the stated bounds."""
    from .growth import diameter  # here, so that construct_family alone never loads growth

    inst_l = construct_family(f"symfp:n={n},p={p},variant=L")
    inst_p = construct_family(f"symfp:n={n},p={p},variant=Gprime")
    inst_0 = construct_family(f"symfp:n={n},p={p},variant=G")
    gamma_l = diameter(inst_l.group, inst_l.gens)
    gamma_p = diameter(inst_p.group, inst_p.gens)
    gamma_0 = diameter(inst_0.group, inst_0.gens)
    c_meas = (gamma_l - n * p) / n**2
    return LggReport(n, p, gamma_l, gamma_p, gamma_0, c_meas)
