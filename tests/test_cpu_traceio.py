"""Tests for trace/program serialization."""

import hashlib
import json

import pytest

from repro.core.checker import CheckerCore
from repro.core.system import ParaVerserConfig, ParaVerserSystem
from repro.cpu.config import CoreInstance
from repro.cpu.presets import A510, X2
from repro.cpu.timing import TimingModel
from repro.cpu import traceio
from repro.cpu.traceio import (
    load_run,
    program_from_json,
    program_to_json,
    save_run,
)
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile


@pytest.fixture(scope="module")
def run_and_program():
    program = build_program(get_profile("x264"), seed=3)  # incl. BCOPY ops
    config = ParaVerserConfig(
        main=CoreInstance(X2, 3.0), checkers=[CoreInstance(A510, 2.0)],
        seed=3, timeout_instructions=500,
    )
    system = ParaVerserSystem(config)
    return system, program, system.execute(program, 6_000)


def test_program_roundtrip(run_and_program):
    _, program, _ = run_and_program
    restored = program_from_json(program_to_json(program))
    assert restored.name == program.name
    assert len(restored.instructions) == len(program.instructions)
    assert restored.memory_image == program.memory_image
    for a, b in zip(restored.instructions, program.instructions):
        assert a == b


def test_run_roundtrip(tmp_path, run_and_program):
    _, _, run = run_and_program
    path = tmp_path / "run.pvtc"
    save_run(run, path)
    restored = load_run(path)
    assert restored.instructions == run.instructions
    assert restored.halted == run.halted
    assert restored.start_checkpoint.matches(run.start_checkpoint)
    assert restored.end_checkpoint.matches(run.end_checkpoint)
    a, b = restored.columns, run.columns
    assert len(a) == len(b)
    assert (a.pcs, a.mem_rows, a.br_rows, a.bulks) \
        == (b.pcs, b.mem_rows, b.br_rows, b.bulks)
    assert a.bulks  # x264 exercises the BCOPY side table


def test_loaded_trace_is_checkable(tmp_path, run_and_program):
    """A reloaded run must drive segmentation + healthy replay cleanly."""
    system, _, run = run_and_program
    path = tmp_path / "run.pvtc"
    save_run(run, path)
    restored = load_run(path)
    segments = system.segment(restored)
    checker = CheckerCore(restored.program)
    for segment in segments[:3]:
        result = checker.check_segment(segment)
        assert not result.detected, str(result.first_event)


def test_loaded_trace_times_identically(tmp_path, run_and_program):
    _, _, run = run_and_program
    path = tmp_path / "run.pvtc"
    save_run(run, path)
    restored = load_run(path)
    original = TimingModel(CoreInstance(X2, 3.0)).simulate(
        run.program, run.columns)
    reloaded = TimingModel(CoreInstance(X2, 3.0)).simulate(
        restored.program, restored.columns)
    assert reloaded.cycles == pytest.approx(original.cycles)


def test_format_is_binary_container(tmp_path, run_and_program):
    _, _, run = run_and_program
    path = tmp_path / "run.pvtc"
    save_run(run, path)
    data = path.read_bytes()
    assert data.startswith(traceio.MAGIC)
    assert data[4] == traceio.FORMAT_VERSION
    header_len = int.from_bytes(data[5:13], "little")
    header = json.loads(data[13:13 + header_len].decode("utf-8"))
    assert header["n"] == run.instructions
    assert sum(length for _, length in header["sections"]) \
        == len(data) - 13 - header_len - 32
    assert data[-32:] == hashlib.sha256(data[:-32]).digest()


def test_version_check(tmp_path, run_and_program):
    _, _, run = run_and_program
    path = tmp_path / "run.pvtc"
    save_run(run, path)
    data = bytearray(path.read_bytes())
    data[4] = 99  # container version byte
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        load_run(path)
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(ValueError):
        load_run(path)
    with pytest.raises(ValueError):
        traceio.run_from_payload({"version": 99})


def test_flipped_section_byte_is_rejected(tmp_path, run_and_program):
    """A file written by ``save_run`` with one byte of a column section
    flipped must not load as a different trace."""
    _, _, run = run_and_program
    path = tmp_path / "run.pvtc"
    save_run(run, path)
    data = bytearray(path.read_bytes())
    header_len = int.from_bytes(data[5:13], "little")
    data[13 + header_len] ^= 0x01  # first byte of the first section (pcs)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="checksum"):
        load_run(path)
