"""Validation reports: one record per checked identity, with witnesses.

Identity ids are unique and sorted in a report; JSON serialization is
byte-stable for a fixed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    identity_id: str
    paper_label: str
    status: str  # "pass" | "fail" | "vacuous"
    witness: dict | None = None
    note: str | None = None

    def as_json_obj(self) -> dict:
        obj = {
            "identity_id": self.identity_id,
            "paper_label": self.paper_label,
            "status": self.status,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.note is not None:
            obj["note"] = self.note
        return obj


@dataclass
class ValidationReport:
    records: list = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        if any(r.identity_id == record.identity_id for r in self.records):
            raise ValueError(f"duplicate identity id {record.identity_id}")
        self.records.append(record)

    def extend(self, other: "ValidationReport") -> None:
        for r in other.records:
            self.add(r)

    def sorted_records(self) -> list:
        return sorted(self.records, key=lambda r: r.identity_id)

    @property
    def failures(self) -> list:
        return [r for r in self.records if r.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self, meta: dict | None = None) -> str:
        obj = {
            "records": [r.as_json_obj() for r in self.sorted_records()],
            "fail_count": len(self.failures),
            "ok": self.ok,
        }
        if meta:
            obj["meta"] = meta
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)

    def to_text(self) -> str:
        lines = []
        for r in self.sorted_records():
            mark = {"pass": "pass", "fail": "FAIL", "vacuous": "vac."}[r.status]
            line = f"[{mark}] {r.identity_id}"
            if r.paper_label and r.paper_label != r.identity_id.split(".")[-1]:
                line += f" ({r.paper_label})"
            lines.append(line)
            if r.note:
                lines.append(f"       note: {r.note}")
            if r.status == "fail" and r.witness:
                for k, v in sorted(r.witness.items()):
                    lines.append(f"       {k}: {v}")
        lines.append(f"{len(self.records)} checks, {len(self.failures)} failures")
        return "\n".join(lines)


class RaisingReport(ValidationReport):
    """A report for callers that reject input: adding a failing record
    raises ``error`` with its label and witness, so checks stop at the first
    failure."""

    def __init__(self, error, prefix: str = "", where: str | None = None):
        super().__init__()
        self.error, self.prefix, self.where = error, prefix, where

    def add(self, record: CheckRecord) -> None:
        if record.status == "fail":
            at = ", ".join(f"{k}={v}" for k, v in record.witness.items())
            raise self.error(f"{self.prefix}{record.paper_label} at {at}", where=self.where)
        super().add(record)


def passing(identity_id: str, label: str, note: str | None = None) -> CheckRecord:
    return CheckRecord(identity_id, label, "pass", note=note)


def failing(identity_id: str, label: str, witness: dict, note: str | None = None) -> CheckRecord:
    return CheckRecord(identity_id, label, "fail", witness=witness, note=note)


def vacuous(identity_id: str, label: str, note: str = "empty domain") -> CheckRecord:
    return CheckRecord(identity_id, label, "vacuous", note=note)


def map_equality_record(identity_id: str, label: str, lhs, rhs, witness_space=None,
                        note: str | None = None) -> CheckRecord:
    """Compare two LinearMaps column by column; on failure report the first
    differing basis element together with both evaluated sides."""
    if lhs.antilinear != rhs.antilinear:
        return failing(identity_id, label, {"reason": "antilinearity mismatch"}, note)
    j = lhs.first_difference(rhs)
    if j is None:
        return passing(identity_id, label, note)
    dom = lhs.domain
    cod = witness_space if witness_space is not None else lhs.codomain
    wit = {
        "basis_index": j,
        "basis_label": dom.labels[j] if j < len(dom.labels) else str(j),
        "lhs": cod.render(lhs.cols[j]),
        "rhs": cod.render(rhs.cols[j]),
    }
    return failing(identity_id, label, wit, note)
