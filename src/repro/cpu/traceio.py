"""Trace and program serialization.

Functional runs are the expensive part of large sweeps; this module
persists them so a trace captured once (e.g. in CI, or on a big machine)
can be replayed through any number of timing/checking configurations
later.  No pickle: the format is stable and safe to load from untrusted
sources.

A run is stored as a binary container: a 13-byte preamble (``PVTC``
magic, format version, little-endian u64 header length), a JSON header
with everything human-scaled (program, checkpoints, counters, section
table), the packed column bytes of the
:class:`~repro.cpu.columns.TraceColumns` planes back to back, and a
32-byte SHA-256 trailer over every preceding byte.  The reader checks
the trailer before it parses anything, so a truncated or bit-flipped
file raises :class:`ValueError` instead of decoding to a different
trace.  The same column bytes ride inside :func:`run_to_payload` dicts,
so the pickled stage handoff between sweep/serve workers stays compact.

``TRACE_SEMANTICS_VERSION`` tracks the *meaning* of a trace (what the
functional core records), separately from the container layout.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

from repro.cpu.columns import TraceColumns
from repro.cpu.functional import RunResult
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import RegisterCheckpoint

#: Container/payload layout version (3 = binary columnar with a
#: SHA-256 trailer).  Only this version is read.
FORMAT_VERSION = 3

#: Version of what a trace *means*; bump when the functional core's
#: recording semantics change (new fields, different sentinels...).
TRACE_SEMANTICS_VERSION = 1

#: On-disk magic of the binary container.
MAGIC = b"PVTC"

_PREAMBLE = struct.Struct("<4sBQ")  # magic, version, header byte length

#: Length of the SHA-256 trailer that closes every container.
_DIGEST_BYTES = hashlib.sha256().digest_size

#: Packed-column section order inside the binary container body.
_COLUMN_KEYS = (
    "pcs", "m_idx", "m_flags", "m_addr", "m_addr2", "m_size",
    "m_loaded", "m_loaded2", "m_stored", "m_nonrep",
    "b_idx", "b_next", "b_taken", "k_idx", "k_lens", "k_data",
)

_INSTR_FIELDS = ("rd", "rs1", "rs2", "rs3", "rd2", "imm", "target", "size")


def _instruction_to_json(instr: Instruction) -> dict:
    data: dict = {"op": instr.op.value}
    for name in _INSTR_FIELDS:
        value = getattr(instr, name)
        default = 8 if name == "size" else 0
        if value != default:
            data[name] = value
    return data


def _instruction_from_json(data: dict) -> Instruction:
    kwargs = {name: data[name] for name in _INSTR_FIELDS if name in data}
    return Instruction(Opcode(data["op"]), **kwargs)


def program_to_json(program: Program) -> dict:
    """Serialize a program (instructions, memory image, metadata)."""
    return {
        "name": program.name,
        "entry": program.entry,
        "instructions": [_instruction_to_json(i)
                         for i in program.instructions],
        # JSON keys must be strings.
        "memory_image": {str(addr): value
                         for addr, value in program.memory_image.items()},
        "metadata": _jsonable_metadata(program.metadata),
    }


def _jsonable_metadata(metadata: dict) -> dict:
    out = {}
    for key, value in metadata.items():
        if isinstance(value, (str, int, float, bool, type(None))):
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [list(v) if isinstance(v, tuple) else v for v in value]
        elif isinstance(value, dict):
            out[key] = dict(value)
    return out


def program_from_json(data: dict) -> Program:
    program = Program(
        name=data["name"],
        instructions=[_instruction_from_json(i)
                      for i in data["instructions"]],
        memory_image={int(addr): value
                      for addr, value in data["memory_image"].items()},
        entry=data.get("entry", 0),
        metadata=data.get("metadata", {}),
    )
    program.validate()
    return program


def _checkpoint_to_json(ckpt: RegisterCheckpoint) -> dict:
    return {"ints": list(ckpt.ints), "fps": list(ckpt.fps), "pc": ckpt.pc}


def _checkpoint_from_json(data: dict) -> RegisterCheckpoint:
    return RegisterCheckpoint(
        tuple(data["ints"]), tuple(data["fps"]), data["pc"])


def run_to_payload(run: RunResult) -> dict:
    """A plain-value payload for one functional run.

    The trace rides as packed column byte strings (the binary
    container's section bodies), so the payload is cheap to pickle —
    the sweep/serve engines use it to hand a trace computed by one
    worker process to another without re-executing.
    """
    payload = {
        "version": FORMAT_VERSION,
        "program": program_to_json(run.program),
        "start_checkpoint": _checkpoint_to_json(run.start_checkpoint),
        "end_checkpoint": _checkpoint_to_json(run.end_checkpoint),
        "halted": run.halted,
        "instructions": run.instructions,
        "class_counts": run.class_counts,
    }
    payload["columns"] = run.columns.to_payload()
    return payload


def run_from_payload(payload: dict) -> RunResult:
    """Rebuild a run from :func:`run_to_payload` output."""
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version!r}")
    program = program_from_json(payload["program"])
    return RunResult(
        program=program,
        columns=TraceColumns.from_payload(payload["columns"], program),
        start_checkpoint=_checkpoint_from_json(payload["start_checkpoint"]),
        end_checkpoint=_checkpoint_from_json(payload["end_checkpoint"]),
        halted=payload["halted"],
        instructions=payload["instructions"],
        class_counts=payload.get("class_counts", {}),
    )


def run_to_bytes(run: RunResult) -> bytes:
    """Serialize a run into the binary container (see module docstring)."""
    columns = run.columns.to_payload()
    sections = [(key, columns[key]) for key in _COLUMN_KEYS]
    header = {
        "program": program_to_json(run.program),
        "start_checkpoint": _checkpoint_to_json(run.start_checkpoint),
        "end_checkpoint": _checkpoint_to_json(run.end_checkpoint),
        "halted": run.halted,
        "instructions": run.instructions,
        "class_counts": run.class_counts,
        "n": columns["n"],
        "sections": [[key, len(data)] for key, data in sections],
    }
    header_bytes = json.dumps(header).encode("utf-8")
    parts = [_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header_bytes)),
             header_bytes]
    parts.extend(data for _, data in sections)
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


def run_from_bytes(data: bytes) -> RunResult:
    """Deserialize a run written by :func:`run_to_bytes`.

    Raises :class:`ValueError` on a foreign magic, another format
    version, or a SHA-256 trailer that does not match the bytes before
    it (truncation, bit flips).
    """
    if not data.startswith(MAGIC):
        raise ValueError("not a binary trace (bad magic)")
    if len(data) < _PREAMBLE.size + _DIGEST_BYTES:
        raise ValueError("binary trace truncated before header")
    _, version, header_len = _PREAMBLE.unpack_from(data)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace container version {version}")
    end = len(data) - _DIGEST_BYTES
    if hashlib.sha256(data[:end]).digest() != data[end:]:
        raise ValueError("binary trace checksum mismatch")
    body = _PREAMBLE.size + header_len
    if end < body:
        raise ValueError("binary trace truncated inside header")
    header = json.loads(data[_PREAMBLE.size:body].decode("utf-8"))
    program = program_from_json(header["program"])
    columns_payload: dict = {"n": header["n"]}
    offset = body
    for key, length in header["sections"]:
        if offset + length > end:
            raise ValueError(f"binary trace truncated in section {key!r}")
        columns_payload[key] = data[offset:offset + length]
        offset += length
    for key in _COLUMN_KEYS:
        if key not in columns_payload:
            raise ValueError(f"binary trace missing section {key!r}")
    return RunResult(
        program=program,
        columns=TraceColumns.from_payload(columns_payload, program),
        start_checkpoint=_checkpoint_from_json(header["start_checkpoint"]),
        end_checkpoint=_checkpoint_from_json(header["end_checkpoint"]),
        halted=header["halted"],
        instructions=header["instructions"],
        class_counts=header.get("class_counts", {}),
    )


def save_run(run: RunResult, path: str | Path) -> None:
    """Persist a functional run (program + trace + checkpoints)."""
    Path(path).write_bytes(run_to_bytes(run))


def load_run(path: str | Path) -> RunResult:
    """Load a run saved by :func:`save_run`."""
    return run_from_bytes(Path(path).read_bytes())
