"""Circuit/substation hierarchy: incidence matrix, aggregation, membership queries."""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataValidationError, read_text


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Partition of ``n`` circuits into ``m`` substations.

    ``C`` is the binary incidence matrix (n, m) with exactly one 1 per row.
    Circuit order is the external index space shared by every panel/matrix
    in the package.
    """

    circuit_ids: tuple
    substation_ids: tuple
    C: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=np.int64)
        if C.ndim != 2:
            raise DataValidationError("incidence matrix must be 2-dimensional")
        n, m = C.shape
        if len(self.circuit_ids) != n or len(self.substation_ids) != m:
            raise DataValidationError(
                f"id lengths ({len(self.circuit_ids)}, {len(self.substation_ids)}) "
                f"do not match incidence shape {C.shape}"
            )
        if not np.isin(C, (0, 1)).all():
            raise DataValidationError("incidence entries must be 0 or 1")
        rows = C.sum(axis=1)
        if np.any(rows != 1):
            bad = [self.circuit_ids[i] for i in np.flatnonzero(rows != 1)[:5]]
            raise DataValidationError(
                f"each circuit must attach to exactly one substation; violated by {bad}"
            )
        if len(set(self.circuit_ids)) != n:
            raise DataValidationError("duplicate circuit ids")
        if len(set(self.substation_ids)) != m:
            raise DataValidationError("duplicate substation ids")
        empty = np.flatnonzero(C.sum(axis=0) == 0)
        if empty.size:
            warnings.warn(
                "substations with no circuits: "
                + ", ".join(str(self.substation_ids[j]) for j in empty),
                UserWarning,
                stacklevel=2,
            )
        C.flags.writeable = False
        object.__setattr__(self, "circuit_ids", tuple(self.circuit_ids))
        object.__setattr__(self, "substation_ids", tuple(self.substation_ids))
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[1]

    @cached_property
    def substation_of(self) -> np.ndarray:
        """Length-n array mapping circuit index to substation index."""
        return np.argmax(self.C, axis=1)

    @cached_property
    def members(self) -> tuple:
        """Per-substation arrays of member circuit indices."""
        sub = self.substation_of
        return tuple(np.flatnonzero(sub == j) for j in range(self.m))

    def aggregate(self, v) -> np.ndarray:
        """Cᵀ·v along the last axis: substation j gets the sum of its members.

        Implemented as per-substation ``np.sum`` so integer inputs aggregate
        in exact integer arithmetic.
        """
        v = np.asarray(v)
        if v.shape[-1] != self.n:
            raise DataValidationError(
                f"last axis has length {v.shape[-1]}, expected {self.n} circuits"
            )
        cols = [v[..., idx].sum(axis=-1) for idx in self.members]
        return np.stack(cols, axis=-1)

    @classmethod
    def from_assignments(cls, circuit_ids, substations) -> "NetworkTopology":
        """Build from a per-circuit substation label sequence.

        Substation order is first appearance in ``substations``.
        """
        circuit_ids = tuple(circuit_ids)
        substations = list(substations)
        if len(substations) != len(circuit_ids):
            raise DataValidationError("one substation label required per circuit")
        order = []
        seen = {}
        for s in substations:
            if s not in seen:
                seen[s] = len(order)
                order.append(s)
        C = np.zeros((len(circuit_ids), len(order)), dtype=np.int64)
        for i, s in enumerate(substations):
            C[i, seen[s]] = 1
        return cls(circuit_ids=circuit_ids, substation_ids=tuple(order), C=C)

    @classmethod
    def from_csv(cls, path) -> "NetworkTopology":
        """Load a two-column mapping file with header circuit_id,substation_id."""
        with io.StringIO(read_text(path), newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataValidationError(f"{path}: empty topology file") from None
            if [h.strip() for h in header] != ["circuit_id", "substation_id"]:
                raise DataValidationError(
                    f"{path}: expected header circuit_id,substation_id, got {header}"
                )
            circuits, subs = [], []
            for ln, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 2:
                    raise DataValidationError(f"{path}:{ln}: expected 2 columns")
                cid, sid = row[0].strip(), row[1].strip()
                if not cid or not sid:
                    raise DataValidationError(f"{path}:{ln}: blank identifier")
                circuits.append(cid)
                subs.append(sid)
        if len(set(circuits)) != len(circuits):
            dupes = sorted({c for c in circuits if circuits.count(c) > 1})
            raise DataValidationError(f"{path}: duplicate circuit ids {dupes[:5]}")
        if not circuits:
            raise DataValidationError(f"{path}: no circuit rows")
        return cls.from_assignments(circuits, subs)

    def to_csv(self, path):
        sub = self.substation_of
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["circuit_id", "substation_id"])
            for i, cid in enumerate(self.circuit_ids):
                writer.writerow([cid, self.substation_ids[sub[i]]])

