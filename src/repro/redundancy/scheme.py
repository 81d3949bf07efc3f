"""Declarative redundancy-group schemes and the ``--redundancy`` parser.

A :class:`GroupScheme` says how data is laid out inside one group of
disks and how many failures the layout survives; it carries no array
state (that is :class:`repro.redundancy.groups.RedundancyGroups`).  The
presets follow the ydb naming the roadmap cites:

``mirror2`` / ``mirrorN``
    N full copies, each replica in its own fault domain; survives N-1
    failures of one replica set at Nx storage.
``mirror3dc``
    Nine disks per group, three replica sets of three, each set spanning
    three datacenter fault domains; survives any full-domain outage plus
    one more disk, at 3x storage.
``block4-2``
    Reed-Solomon-style 6-of-8 parity: eight disks per group (one per
    rack fault domain), any six reconstruct the data; survives any two
    failures at 8/6 (about 1.33x) raw storage.  The name follows ydb's
    4+2 erasure, whose degraded reads touch four disks where this
    geometry touches six (DESIGN.md section 14.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.util.validation import require, require_positive

__all__ = ["GroupScheme", "SCHEME_PRESETS", "mirror_scheme",
           "parse_redundancy_spec"]

#: Scheme kinds: ``none`` (single copy), ``mirror`` (full replicas),
#: ``parity`` (k-of-n erasure coding).
_KINDS = ("none", "mirror", "parity")


@dataclass(frozen=True, slots=True)
class GroupScheme:
    """One redundancy layout, described declaratively.

    Attributes
    ----------
    name:
        Registry/CLI name (``"block4-2"``, ``"mirror3dc"``, ...).
    kind:
        ``"none"``, ``"mirror"``, or ``"parity"``.
    group_size:
        Disks per redundancy group; the array size must be a multiple.
    data_shards:
        ``k``: live group members needed to serve or reconstruct a
        file.  1 for mirrors (any copy suffices), ``k < group_size``
        for parity codes.
    replicas:
        Full copies of each file inside the group (mirror kinds);
        1 for parity/none.  Mirror groups split into
        ``group_size / replicas`` independent replica sets.
    fault_domains:
        Failure-correlated domains the group spans (racks or
        datacenters); a domain outage fails every member in that
        domain at once.  Members are assigned to domains in contiguous
        blocks of ``group_size / fault_domains``.
    """

    name: str
    kind: str
    group_size: int
    data_shards: int
    replicas: int
    fault_domains: int

    def __post_init__(self) -> None:
        require(self.kind in _KINDS,
                f"kind must be one of {_KINDS}, got {self.kind!r}")
        require_positive(self.group_size, "group_size")
        require(1 <= self.data_shards <= self.group_size,
                f"data_shards must be in [1, group_size], got {self.data_shards}")
        require_positive(self.replicas, "replicas")
        require_positive(self.fault_domains, "fault_domains")
        require(self.group_size % self.fault_domains == 0,
                f"group_size {self.group_size} must be a multiple of "
                f"fault_domains {self.fault_domains}")
        if self.kind == "none":
            require(self.group_size == 1 and self.replicas == 1
                    and self.data_shards == 1,
                    "scheme 'none' must be a single-disk group")
        elif self.kind == "mirror":
            require(self.data_shards == 1,
                    "mirror schemes serve from any single copy (data_shards=1)")
            require(self.replicas >= 2,
                    f"mirror schemes need >= 2 replicas, got {self.replicas}")
            require(self.group_size % self.replicas == 0,
                    f"group_size {self.group_size} must be a multiple of "
                    f"replicas {self.replicas}")
        else:  # parity
            require(self.replicas == 1,
                    "parity schemes carry one copy plus parity (replicas=1)")
            require(self.data_shards < self.group_size,
                    "parity schemes need data_shards < group_size")

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------
    @property
    def is_redundant(self) -> bool:
        """True when the scheme survives at least one disk failure."""
        return self.fault_tolerance > 0

    @property
    def fault_tolerance(self) -> int:
        """Worst-case disk failures any group survives without data loss.

        Parity: ``n - k``.  Mirror: ``replicas - 1`` (failures aimed at
        one replica set; other sets' members don't help that set's data).
        """
        if self.kind == "parity":
            return self.group_size - self.data_shards
        if self.kind == "mirror":
            return self.replicas - 1
        return 0

    @property
    def loss_unit_size(self) -> int:
        """Disks in one independent data-loss unit (the CTMC's chain).

        A parity group loses data as a whole (any ``tolerance + 1``
        members); a mirror group splits into replica sets that each
        lose data independently.
        """
        return self.replicas if self.kind == "mirror" else self.group_size

    @property
    def reconstruct_legs(self) -> int:
        """Disks a degraded read touches: 1 for mirrors, ``k`` for parity."""
        return self.data_shards if self.kind == "parity" else 1


def mirror_scheme(replicas: int) -> GroupScheme:
    """``mirrorN``: N copies, each in its own fault domain."""
    require(replicas >= 2, f"mirrorN needs N >= 2, got {replicas}")
    return GroupScheme(
        name=f"mirror{replicas}", kind="mirror", group_size=replicas,
        data_shards=1, replicas=replicas, fault_domains=replicas)


#: Named presets accepted by ``--redundancy`` (plus the ``mirrorN`` family).
SCHEME_PRESETS: dict[str, GroupScheme] = {
    "none": GroupScheme(name="none", kind="none", group_size=1,
                        data_shards=1, replicas=1, fault_domains=1),
    "mirror2": mirror_scheme(2),
    "mirror3": mirror_scheme(3),
    "mirror3dc": GroupScheme(name="mirror3dc", kind="mirror", group_size=9,
                             data_shards=1, replicas=3, fault_domains=3),
    "block4-2": GroupScheme(name="block4-2", kind="parity", group_size=8,
                            data_shards=6, replicas=1, fault_domains=8),
}

_MIRROR_N = re.compile(r"^mirror(\d+)$")


def parse_redundancy_spec(spec: str) -> GroupScheme:
    """Parse the CLI ``--redundancy`` value into a :class:`GroupScheme`.

    Accepts the preset names (``none``, ``mirror3dc``, ``block4-2``) and
    the ``mirrorN`` family for any N >= 2.  Unknown names raise
    :class:`ValueError` (the CLI maps that to exit code 2).
    """
    text = spec.strip().lower()
    if not text:
        raise ValueError("--redundancy spec must not be empty "
                         "(use 'none' to disable)")
    if text in SCHEME_PRESETS:
        return SCHEME_PRESETS[text]
    match = _MIRROR_N.match(text)
    if match:
        replicas = int(match.group(1))
        if replicas < 2:
            raise ValueError(f"mirrorN needs N >= 2, got {text!r}")
        return mirror_scheme(replicas)
    known = ", ".join(sorted(SCHEME_PRESETS))
    raise ValueError(f"unknown --redundancy scheme {text!r}; "
                     f"known: {known} (or mirrorN)")
