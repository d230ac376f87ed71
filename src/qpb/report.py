"""Validation reports: one record per checked identity, with witnesses.

Every identity that a suite checks is recorded by ``ValidationReport.check``
under one (identity id, label) pair, written once: the first witness that is
not None fails the record, and none passes it.  A witness is a dict that
positions the failure (a basis index, a pair, a tuple, ...), so an empty
dict fails too.  Records whose status the construction fixes (pass,
vacuous) are added directly.  Identity ids are unique and sorted in a
report; JSON serialization is byte-stable for a fixed input.
"""

from __future__ import annotations

import json


class CheckRecord:
    """One checked identity: ``status`` is "pass", "fail" or "vacuous"."""

    __slots__ = ("identity_id", "paper_label", "status", "witness", "note")

    def __init__(self, identity_id: str, paper_label: str, status: str,
                 witness: dict | None = None, note: str | None = None):
        self.identity_id, self.paper_label, self.status = identity_id, paper_label, status
        self.witness, self.note = witness, note

    def __repr__(self):
        return f"CheckRecord({self.identity_id!r}, {self.status!r})"

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


class ValidationReport:
    """Records in the order added, with their ids, which must be unique."""

    def __init__(self):
        self.records: list = []
        self._ids: set = set()

    def add(self, record: CheckRecord) -> None:
        if record.identity_id in self._ids:
            raise ValueError(f"duplicate identity id {record.identity_id}")
        self._ids.add(record.identity_id)
        self.records.append(record)

    def check(self, ident, witnesses, note: str | None = None):
        """Record ``ident`` = (id, label): failing with the first item of
        ``witnesses`` that is not None, passing if there is none; return
        that witness or None.  When ``ident`` is None nothing is recorded and
        ``witnesses`` is never consumed, so a generator computes nothing."""
        if ident is None:
            return None
        bad = next((w for w in witnesses if w is not None), None)
        self.add(CheckRecord(*ident, "pass" if bad is None else "fail", bad, note))
        return bad

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
    """A report for callers that reject input: adding a failing record, as
    ``check`` does at the first witness, raises ``error`` with its label and
    witness, so checks stop at the first failure."""

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
    """Compare two maps column by column; on failure report the first
    differing basis element together with both evaluated sides.

    Each side is a LinearMap or a composition, written as a sequence of
    LinearMaps whose last map acts first.  A composition is never built: its
    column j is the chain applied to the first map's column j, and no column
    after the first difference is evaluated.  A composition is antilinear
    when an odd number of its maps are."""
    lhs, rhs = _parts(lhs), _parts(rhs)
    if sum(m.antilinear for m in lhs) % 2 != sum(m.antilinear for m in rhs) % 2:
        return failing(identity_id, label, {"reason": "antilinearity mismatch"}, note)
    diff = first_difference(lhs, rhs)
    if diff is None:
        return passing(identity_id, label, note)
    j, lcol, rcol = diff
    dom = lhs[-1].domain
    cod = witness_space if witness_space is not None else lhs[0].codomain
    wit = {
        "basis_index": j,
        "basis_label": dom.labels[j] if j < len(dom.labels) else str(j),
        "lhs": cod.render(lcol),
        "rhs": cod.render(rcol),
    }
    return failing(identity_id, label, wit, note)


def first_difference(lhs, rhs):
    """(j, lhs column j, rhs column j) at the first column where two sides
    differ, each side written as in ``map_equality_record``, or None; the
    columns are evaluated one at a time, up to that one."""
    lhs, rhs = _parts(lhs), _parts(rhs)
    for j in range(min(lhs[-1].domain.dim, rhs[-1].domain.dim)):
        lcol, rcol = _column(lhs, j), _column(rhs, j)
        if lcol != rcol:
            return j, lcol, rcol
    return None


def _parts(side) -> tuple:
    """A side of an identity as its maps, the last acting first."""
    return tuple(side) if isinstance(side, (tuple, list)) else (side,)


def _column(parts, j: int):
    """Column j of the composition of ``parts``."""
    v = parts[-1].cols[j]
    for m in reversed(parts[:-1]):
        v = m.apply(v)
    return v
