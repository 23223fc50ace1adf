"""Geometric selection rules for emergent two-step tunneling.

Which first-order couplings can survive is decided by geometry alone: a
two-step process with equal hop vectors vanishes identically (antisymmetry of
the two-step amplitude), and two processes connecting the same ordered pair
of sites with swapped hop vectors cancel each other exactly. Everything else
is potentially finite, though a particular drive may still send it to zero.

The classification assumes the tunneling amplitude depends only on the hop
displacement; specs violating that are refused, because then swapped
processes no longer carry opposite amplitudes.

The report depends on the lattice alone, so it is built once per
``LatticeSpec`` from the spec's pair table, the one order 1 sums over, and
kept in a small bounded cache keyed on the (frozen, identity-compared) spec.
The report is immutable and its hop vectors are read-only, so every caller
can share it; a spec that is refused is not cached and raises on every call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .effective import DEFAULT_PRUNE_TOL, _prune_tol, _threshold
from .errors import ConsistencyError, ValidationError
from .lattice import LatticeSpec, offset_dict

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


def _check_displacement_condition(lattice: LatticeSpec, displacements) -> None:
    seen = {}
    for b, a in zip(lattice.bonds, displacements):
        key = _vkey(a)
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

    The report is built once per lattice and shared by later calls; it is
    immutable, its hop vectors read-only.
    """
    return _process_report(lattice)


# An identity-keyed cache, not a field of the frozen spec like the pair table:
# building it can refuse the lattice, and lattice.py must not import selection.
@functools.lru_cache(maxsize=8)
def _process_report(lattice: LatticeSpec) -> ProcessReport:
    table = lattice._pairs
    displacements = table.displacements
    _check_displacement_condition(lattice, displacements)

    bonds = lattice.bonds
    groups = {}
    columns = (table.source, table.target, table.total_index, table.first, table.second)
    for source, target, t, i, j in zip(*(c.tolist() for c in columns)):
        groups.setdefault((source, target, table.totals[t]), []).append((i, j))

    keys_of = [_vkey(a) for a in displacements]
    processes = []
    couplings = []
    for (source, target, total) in sorted(groups):
        members = groups[(source, target, total)]
        keys = [(keys_of[i], keys_of[j]) for i, j in members]
        klass = [ProcessClass.POTENTIALLY_FINITE] * len(members)
        pending = {}
        for n, (ki, kj) in enumerate(keys):
            if ki == kj:
                klass[n] = ProcessClass.FORCED_ZERO_SELF
                continue
            partner = pending.get((kj, ki))
            if partner:
                m = partner.pop()
                retraced = kj == tuple(-x + 0.0 for x in ki)
                klass[n] = klass[m] = (
                    ProcessClass.FORCED_ZERO_SELF if retraced else ProcessClass.FORCED_ZERO_PAIRED
                )
            else:
                pending.setdefault((ki, kj), []).append(n)

        group_procs = tuple(
            TwoStepProcess(
                source_basis=source,
                via_basis=bonds[i].target_basis,
                via_offset=bonds[i].cell_offset,
                target_basis=target,
                total_offset=total,
                a_i=displacements[i],
                a_j=displacements[j],
                klass=klass[n],
            )
            for n, (i, j) in enumerate(members)
        )
        finite = ProcessClass.POTENTIALLY_FINITE in klass
        verdict = CouplingClass.POTENTIALLY_FINITE if finite else CouplingClass.FORCED_ZERO
        couplings.append(Coupling(source, target, total, verdict, group_procs))
        processes.extend(group_procs)

    return ProcessReport(tuple(processes), tuple(couplings))


# Order 1 sums many products of harmonics, so a coupling that geometry forces
# to zero can keep rounding noise of order eps * |j|^2 / omega (at most 0.14 eps
# measured on the presets, strong drives and both gauges included). The
# cross-check never tests below this floor, so prune_tol = 0 does not report
# that noise as an inconsistency.
_ROUNDING_FLOOR = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class ConsistencyVerdict:
    consistent: bool
    violations: tuple


def cross_validate(
    report: ProcessReport,
    model,
    prune_tol: float = DEFAULT_PRUNE_TOL,
    strict: bool = True,
) -> ConsistencyVerdict:
    """Check every forced-zero coupling against a computed first-order model.

    A forced-zero coupling with a first-order entry above
    prune_tol * |j|^2 / omega signals an implementation bug by construction.
    ``prune_tol`` must be a finite, non-negative number; an infinite one would pass
    every coupling. Below a few machine epsilons it is raised to that floor,
    the rounding noise order 1 leaves in an exact zero. With ``strict`` a violation raises ConsistencyError;
    otherwise the verdict lists the offending couplings.
    """
    prune_tol = _prune_tol(prune_tol)
    threshold = _threshold(max(prune_tol, _ROUNDING_FLOOR), model.amplitude_scale, model.omega)
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
