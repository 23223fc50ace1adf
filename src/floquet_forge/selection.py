"""Geometric selection rules for emergent two-step tunneling.

Which first-order couplings can survive is decided by geometry alone: a
two-step process with equal hop vectors vanishes identically (antisymmetry of
the two-step amplitude), and two processes connecting the same ordered pair
of sites with swapped hop vectors cancel each other exactly. Everything else
is potentially finite, though a particular drive may still send it to zero.

The classification assumes the tunneling amplitude depends only on the hop
displacement; specs violating that are refused, because then swapped
processes no longer carry opposite amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConsistencyError, ValidationError
from .lattice import LatticeSpec, offset_dict, require_closed

__all__ = [
    "ProcessClass",
    "CouplingClass",
    "TwoStepProcess",
    "Coupling",
    "ProcessReport",
    "ConsistencyVerdict",
    "enumerate_processes",
    "cross_validate",
]


class ProcessClass(Enum):
    FORCED_ZERO_SELF = "forced-zero-self"
    FORCED_ZERO_PAIRED = "forced-zero-paired"
    POTENTIALLY_FINITE = "potentially-finite"


class CouplingClass(Enum):
    FORCED_ZERO = "forced-zero"
    POTENTIALLY_FINITE = "potentially-finite"


@dataclass(frozen=True, eq=False)
class TwoStepProcess:
    """One path source -> intermediate -> target with hop vectors a_i, a_j."""

    source_basis: int
    via_basis: int
    via_offset: tuple
    target_basis: int
    total_offset: tuple
    a_i: np.ndarray
    a_j: np.ndarray
    klass: ProcessClass


@dataclass(frozen=True, eq=False)
class Coupling:
    source_basis: int
    target_basis: int
    offset: tuple
    verdict: CouplingClass
    processes: tuple

    def survivors(self) -> tuple:
        return tuple(
            p for p in self.processes if p.klass is ProcessClass.POTENTIALLY_FINITE
        )


@dataclass(frozen=True, eq=False)
class ProcessReport:
    processes: tuple
    couplings: tuple


def _vkey(a) -> tuple:
    return tuple(round(float(x), 9) + 0.0 for x in a)


def _check_displacement_condition(lattice: LatticeSpec) -> None:
    seen = {}
    for b in lattice.bonds:
        key = _vkey(lattice.displacement(b))
        if key in seen:
            other = seen[key]
            if abs(other.amplitude - b.amplitude) > 1e-12 * max(
                abs(other.amplitude), abs(b.amplitude)
            ):
                raise ValidationError(
                    "amplitude is not a function of displacement: bonds "
                    f"{other._label()} and {b._label()} share displacement {key} "
                    f"with amplitudes {other.amplitude} and {b.amplitude}; "
                    "selection rules do not apply"
                )
        else:
            seen[key] = b


def enumerate_processes(lattice: LatticeSpec) -> ProcessReport:
    """Enumerate all two-step processes and classify each coupling.

    Independent of any drive. Within one coupling (ordered source/target basis
    pair at fixed total cell offset), processes with a_i = a_j are forced
    zeros on their own; a process whose hop-swapped partner is also present
    cancels pairwise (a retraced hop a_j = -a_i counts as its own reverse).
    The coupling is forced zero iff no process survives.
    """
    require_closed(lattice)
    _check_displacement_condition(lattice)

    raw = []
    for b1 in lattice.bonds:
        a_i = lattice.displacement(b1)
        for b2 in lattice.bonds:
            if b2.source_basis != b1.target_basis:
                continue
            total = tuple(x + y for x, y in zip(b1.cell_offset, b2.cell_offset))
            raw.append(
                {
                    "source": b1.source_basis,
                    "via": b1.target_basis,
                    "via_offset": b1.cell_offset,
                    "target": b2.target_basis,
                    "total": total,
                    "a_i": a_i,
                    "a_j": lattice.displacement(b2),
                }
            )

    groups = {}
    for r in raw:
        groups.setdefault((r["source"], r["target"], r["total"]), []).append(r)

    processes = []
    couplings = []
    for (source, target, total) in sorted(groups):
        members = groups[(source, target, total)]
        keys = [(_vkey(r["a_i"]), _vkey(r["a_j"])) for r in members]
        klass = [None] * len(members)
        pending = {}
        for i, (ki, kj) in enumerate(keys):
            if ki == kj:
                klass[i] = ProcessClass.FORCED_ZERO_SELF
                continue
            partner = pending.get((kj, ki))
            if partner:
                j = partner.pop()
                retraced = kj == tuple(-x + 0.0 for x in ki)
                pair_class = (
                    ProcessClass.FORCED_ZERO_SELF
                    if retraced
                    else ProcessClass.FORCED_ZERO_PAIRED
                )
                klass[i] = klass[j] = pair_class
            else:
                pending.setdefault((ki, kj), []).append(i)
        for i in range(len(members)):
            if klass[i] is None:
                klass[i] = ProcessClass.POTENTIALLY_FINITE

        group_procs = tuple(
            TwoStepProcess(
                source_basis=r["source"],
                via_basis=r["via"],
                via_offset=r["via_offset"],
                target_basis=r["target"],
                total_offset=r["total"],
                a_i=r["a_i"],
                a_j=r["a_j"],
                klass=klass[i],
            )
            for i, r in enumerate(members)
        )
        verdict = (
            CouplingClass.POTENTIALLY_FINITE
            if any(p.klass is ProcessClass.POTENTIALLY_FINITE for p in group_procs)
            else CouplingClass.FORCED_ZERO
        )
        couplings.append(Coupling(source, target, total, verdict, group_procs))
        processes.extend(group_procs)

    return ProcessReport(tuple(processes), tuple(couplings))


@dataclass(frozen=True)
class ConsistencyVerdict:
    consistent: bool
    violations: tuple


def cross_validate(
    report: ProcessReport,
    model,
    prune_tol: float = 1e-10,
    strict: bool = True,
) -> ConsistencyVerdict:
    """Check every forced-zero coupling against a computed first-order model.

    A forced-zero coupling with a first-order entry above
    prune_tol * |j|^2 / omega signals an implementation bug by construction.
    With ``strict`` a violation raises ConsistencyError; otherwise the
    verdict lists the offending couplings.
    """
    threshold = prune_tol * model.amplitude_scale**2 / model.omega
    table = offset_dict(model.order1)
    violations = []
    for c in report.couplings:
        if c.verdict is not CouplingClass.FORCED_ZERO:
            continue
        m = table.get(c.offset)
        value = 0.0 if m is None else abs(m[c.target_basis, c.source_basis])
        if not (value <= threshold):
            violations.append(
                f"coupling {c.source_basis}->{c.target_basis} at offset {c.offset} "
                f"is forced zero but has |B| = {value:.3e} (threshold {threshold:.3e})"
            )
    verdict = ConsistencyVerdict(not violations, tuple(violations))
    if strict and violations:
        raise ConsistencyError(violations[0])
    return verdict
