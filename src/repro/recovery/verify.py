"""Verification of recovered state against the commit oracle.

The contract: after recovery, every persistent data word any atomic region
ever wrote must hold exactly the value the commit oracle's committed image
holds. This single comparison implies:

* **atomicity** - an uncommitted region's writes are fully rolled back,
* **durability** - a committed region's writes all survive,
* **ordering** - since schemes only report commits in dependence order,
  the surviving set is dependence-closed.

It also implies the recovery-side invariant of docs/RECOVERY.md:
recovery must never make a consistent image worse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.mem.image import MemoryImage
from repro.recovery.crash import require_inspected
from repro.sim.machine import Machine


@dataclass
class VerificationResult:
    ok: bool
    mismatches: List[Tuple[int, int, int]] = field(default_factory=list)
    words_checked: int = 0

    def explain(self) -> str:
        if self.ok:
            return f"recovered image consistent on {self.words_checked} words"
        lines = [
            f"  word {addr:#x}: expected {expect:#x}, recovered {got:#x}"
            for addr, expect, got in self.mismatches
        ]
        return "recovered image INCONSISTENT:\n" + "\n".join(lines)


def verify_recovery(machine: Machine, recovered: MemoryImage) -> VerificationResult:
    """Compare a recovered PM image with the machine's commit oracle."""
    require_inspected(machine, "verify")
    oracle = machine.oracle
    mismatches = oracle.mismatches(recovered, limit=25)
    return VerificationResult(
        ok=not mismatches,
        mismatches=mismatches,
        words_checked=len(oracle.tracked_words),
    )
