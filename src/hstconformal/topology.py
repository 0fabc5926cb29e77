"""Circuit/substation hierarchy: circuit→substation assignment, aggregation, membership queries."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataValidationError, check_circuits, read_csv_pairs


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Partition of ``n`` circuits into ``m`` substations.

    ``substation_of`` is the read-only (n,) int64 vector whose entry i indexes
    circuit i's substation in ``substation_ids``; every substation has a circuit.
    Circuit order is the external index space shared by every panel/matrix
    in the package.
    """

    circuit_ids: tuple
    substation_ids: tuple
    substation_of: np.ndarray

    def __post_init__(self):
        cids, sids = tuple(self.circuit_ids), tuple(self.substation_ids)
        sub = np.array(self.substation_of)
        if sub.shape != (len(cids),) or sub.dtype.kind not in "iu":
            raise DataValidationError(
                f"need one integer substation index per circuit: {sub.dtype} array of "
                f"shape {sub.shape} for {len(cids)} circuits")
        sub = sub.astype(np.int64, copy=False)
        outside = (sub < 0) | (sub >= len(sids))
        if outside.any():
            raise DataValidationError(
                f"substation indices outside [0, {len(sids)}) for circuits "
                f"{[cids[i] for i in np.flatnonzero(outside)[:5]]}")
        for what, ids in (("circuit", cids), ("substation", sids)):
            dupes = [x for x, k in Counter(ids).items() if k > 1]
            if dupes:
                raise DataValidationError(f"duplicate {what} ids {dupes[:5]}")
        empty = [sids[j] for j in np.flatnonzero(np.bincount(sub, minlength=len(sids)) == 0)]
        if empty:
            raise DataValidationError(f"substations with no circuits: {empty}")
        sub.flags.writeable = False
        object.__setattr__(self, "circuit_ids", cids)
        object.__setattr__(self, "substation_ids", sids)
        object.__setattr__(self, "substation_of", sub)

    @property
    def n(self) -> int:
        return len(self.circuit_ids)

    @property
    def m(self) -> int:
        return len(self.substation_ids)

    @cached_property
    def members(self) -> tuple:
        """Per-substation arrays of member circuit indices."""
        return tuple(np.flatnonzero(self.substation_of == j) for j in range(self.m))

    def aggregate(self, v) -> np.ndarray:
        """Cᵀ·v along the last axis, C the 0/1 incidence of ``substation_of``:
        substation j gets the sum of its members.

        Implemented as per-substation ``np.sum`` so integer inputs aggregate
        in exact integer arithmetic.
        """
        v = np.asarray(v)
        check_circuits(v.shape[-1], self.n, "value")
        cols = [v[..., idx].sum(axis=-1) for idx in self.members]
        return np.stack(cols, axis=-1)

    @classmethod
    def from_assignments(cls, circuit_ids, substations) -> "NetworkTopology":
        """Build from a per-circuit substation label sequence.

        Substation order is first appearance in ``substations``.
        """
        circuit_ids, substations = tuple(circuit_ids), list(substations)
        if len(substations) != len(circuit_ids):
            raise DataValidationError("one substation label required per circuit")
        order = {}  # label -> index, in first-appearance order
        sub = [order.setdefault(s, len(order)) for s in substations]
        return cls(circuit_ids, tuple(order), np.array(sub, dtype=np.int64))

    @classmethod
    def from_csv(cls, path) -> "NetworkTopology":
        """Load a two-column mapping file with header circuit_id,substation_id."""
        circuits, subs = [], []
        for ln, cid, sid in read_csv_pairs(path, ("circuit_id", "substation_id"), "topology"):
            if not cid or not sid:
                raise DataValidationError(f"{path}:{ln}: blank identifier")
            circuits.append(cid)
            subs.append(sid)
        if not circuits:
            raise DataValidationError(f"{path}: no circuit rows")
        try:
            return cls.from_assignments(circuits, subs)
        except DataValidationError as exc:  # duplicate circuit ids
            raise DataValidationError(f"{path}: {exc}") from None

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["circuit_id", "substation_id"])
            writer.writerows([cid, self.substation_ids[j]]
                             for cid, j in zip(self.circuit_ids, self.substation_of))

