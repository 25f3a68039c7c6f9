"""Workload-fidelity validation: measured behaviour vs. profile targets.

The evaluation only means something if the synthetic workloads actually
behave as profiled.  :func:`characterise` measures a run's realised
instruction mix, branch behaviour and memory locality;
:func:`validate_against_profile` compares them with the generating
profile and reports deviations — used by the test suite as a fidelity
regression guard and available to users adding new profiles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.cpu.functional import RunResult
from repro.isa.instructions import Opcode
from repro.workloads.profiles import WorkloadProfile


@dataclass
class WorkloadCharacter:
    """Measured behavioural statistics of one run."""

    instructions: int
    class_fractions: dict[str, float] = field(default_factory=dict)
    #: Distinct 64 B data lines touched.
    data_footprint_lines: int = 0
    #: Fraction of loads that feed their own next address (chase).
    dependent_load_fraction: float = 0.0
    #: Fraction of conditional branches taken.
    taken_fraction: float = 0.0
    #: Distinct static instructions executed.
    static_instructions_touched: int = 0


_CLASS_OF_FU = {
    "load": "load", "store": "store", "branch": "branch",
    "fp": "fp", "fp_div": "fdiv", "int_mul": "mul",
    "int_div": "int", "int_alu": "int",
}


def characterise(run: RunResult) -> WorkloadCharacter:
    """Measure the realised behaviour of a functional run."""
    total = max(run.instructions, 1)
    fractions: dict[str, float] = {}
    for fu_name, count in run.class_counts.items():
        cls = _CLASS_OF_FU.get(fu_name, "int")
        fractions[cls] = fractions.get(cls, 0.0) + count / total
    columns = run.columns
    instrs = run.program.instructions
    # Static properties are weighed by how often each pc committed.
    pc_counts = Counter(columns.pcs)
    nonrep = loads = chase_loads = branches = 0
    conditional: set[int] = set()
    for pc, count in pc_counts.items():
        instr = instrs[pc]
        spec = instr.spec
        if spec.is_nonrepeatable:
            nonrep += count
        if spec.is_load:
            loads += count
            # A pointer-chase load reads its next address into its own
            # address register (ld rd==rs1 pattern from the generator).
            if instr.op is Opcode.LD and instr.rd == instr.rs1:
                chase_loads += count
        if spec.is_branch and instr.op not in (Opcode.JMP, Opcode.JALR):
            branches += count
            conditional.add(pc)
    pcs = columns.pcs
    taken = sum(1 for idx, _, row_taken in columns.br_rows
                if row_taken and pcs[idx] in conditional)
    lines: set[int] = set()
    for row in columns.mem_rows:
        if row[1] >= 0:
            lines.add(row[1] >> 6)
        if row[2] >= 0:
            lines.add(row[2] >> 6)
    fractions["nonrep"] = nonrep / total
    return WorkloadCharacter(
        instructions=run.instructions,
        class_fractions=fractions,
        data_footprint_lines=len(lines),
        dependent_load_fraction=chase_loads / loads if loads else 0.0,
        taken_fraction=taken / branches if branches else 0.0,
        static_instructions_touched=len(pc_counts),
    )


@dataclass
class Deviation:
    """One measured-vs-target mismatch."""

    metric: str
    target: float
    measured: float

    @property
    def error(self) -> float:
        return self.measured - self.target

    def __str__(self) -> str:
        return (f"{self.metric}: target {self.target:.3f}, "
                f"measured {self.measured:.3f} ({self.error:+.3f})")


def validate_against_profile(
    run: RunResult,
    profile: WorkloadProfile,
    tolerance: float = 0.06,
) -> list[Deviation]:
    """Compare a run's realised mix against its generating profile.

    Returns the deviations exceeding ``tolerance`` (absolute, per
    instruction-class fraction); empty means the workload is faithful.
    """
    character = characterise(run)
    targets = {
        "load": profile.loads + profile.bulk,  # bulk ops count as loads
        "store": profile.stores,
        "branch": profile.branches,
        "fp": profile.fp,
        "fdiv": profile.fdiv,
    }
    deviations: list[Deviation] = []
    for metric, target in targets.items():
        measured = character.class_fractions.get(metric, 0.0)
        if abs(measured - target) > tolerance:
            deviations.append(Deviation(metric, target, measured))
    if profile.pointer_chase:
        measured = character.dependent_load_fraction
        if abs(measured - profile.pointer_chase) > max(tolerance * 3, 0.2):
            deviations.append(Deviation("pointer_chase",
                                        profile.pointer_chase, measured))
    return deviations
