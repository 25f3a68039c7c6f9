"""Columnar traces: consumers vs test-local references, packing round trips.

On every bundled benchmark, the record plane must hold exactly the
instructions that produce a load-store-log record, the sparse segmenter
must cut exactly where a dense instruction-by-instruction walk does, and
the packed form must round-trip bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.counter import SegmentBuilder
from repro.core.lsl import RecordKind, records_from_columns
from repro.cpu import traceio
from repro.cpu.columns import TraceColumns, pack_column, unpack_column
from repro.harness.runner import WorkloadCache
from repro.isa.instructions import Opcode
from repro.workloads.profiles import ALL_PROFILES
from tests.test_oracles import assert_same_cuts, dense_split

BUDGET = 2500
SEED = 7


@pytest.fixture(scope="module")
def cache():
    return WorkloadCache(max_instructions=BUDGET, seed=SEED,
                         trace_cache=None)


#: The record kind each opcode with a fixed kind produces; other loads,
#: stores and non-repeatable reads are plain LOAD / STORE / NONREP.
_KIND_OF_OP = {
    Opcode.BCOPY: RecordKind.BULK,
    Opcode.SWP: RecordKind.SWAP,
    Opcode.SC: RecordKind.NONREP_STORE,
    Opcode.LDG: RecordKind.GATHER,
    Opcode.STS: RecordKind.SCATTER,
}


def _expected_kind(instr):
    spec = instr.spec
    if instr.op in _KIND_OF_OP:
        return _KIND_OF_OP[instr.op]
    if spec.is_load:
        return RecordKind.LOAD
    if spec.is_store:
        return RecordKind.STORE
    if spec.is_nonrepeatable:
        return RecordKind.NONREP
    return None


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_columnar_matches_object_path(cache, name):
    """Golden gate, per bundled benchmark: the columnar consumers agree
    with the per-instruction references."""
    run = cache.get(name).run
    cols = run.columns
    instrs = run.program.instructions

    # One record per record-producing instruction, none for the rest, in
    # commit order, each of the kind its opcode dictates.
    records = records_from_columns(cols)
    want = [(i, _expected_kind(instrs[pc])) for i, pc in enumerate(cols.pcs)
            if _expected_kind(instrs[pc]) is not None]
    assert [(r.trace_index, r.kind) for r in records] == want
    assert [r.trace_index for r in records] \
        == [row[0] for row in cols.mem_rows]

    # Sparse segmentation matches the dense walk, cut for cut —
    # including forced (interrupt) boundaries and a small timeout.
    builder = SegmentBuilder(2048, timeout_instructions=900)
    forced = {97, len(cols) // 2, len(cols)}
    assert_same_cuts(builder.split(cols, forced),
                     dense_split(builder, cols, forced))

    # Packed round trip is exact.
    assert TraceColumns.from_payload(cols.to_payload(), run.program) == cols


def test_binary_container_round_trip(cache):
    run = cache.get("x264").run  # includes BCOPY bulk rows
    restored = traceio.run_from_bytes(traceio.run_to_bytes(run))
    assert restored.columns == run.columns
    assert restored.instructions == run.instructions
    assert restored.end_checkpoint == run.end_checkpoint
    assert restored.class_counts == run.class_counts


@pytest.mark.parametrize("itemsize", [1, 2, 4, 8])
def test_pack_unpack_round_trip(itemsize):
    top = (1 << (8 * itemsize)) - 1
    values = [0, 1, 7, top // 2, top]
    data = pack_column(values, itemsize)
    assert len(data) == len(values) * itemsize
    assert unpack_column(data, itemsize) == values
    assert pack_column([], itemsize) == b""
    assert unpack_column(b"", itemsize) == []


def test_extend_shifts_sparse_indices(cache):
    run = cache.get("x264").run
    cols = run.columns
    n = len(cols)
    merged = TraceColumns(run.program)
    merged.extend(cols)
    merged.extend(cols)
    assert len(merged) == 2 * n
    assert merged.pcs == cols.pcs * 2
    n_mem = len(cols.mem_rows)
    assert merged.mem_rows[:n_mem] == cols.mem_rows
    assert merged.mem_rows[n_mem:] == [(r[0] + n,) + r[1:]
                                       for r in cols.mem_rows]
    assert merged.br_rows[len(cols.br_rows):] == [
        (i + n, nxt, taken) for i, nxt, taken in cols.br_rows]
    assert set(merged.bulks) \
        == set(cols.bulks) | {i + n for i in cols.bulks}


_DIGEST_SCRIPT = """
import hashlib
from repro.harness.runner import WorkloadCache
from repro.cpu import columns

cache = WorkloadCache(max_instructions=%d, seed=%d, trace_cache=None)
payload = cache.get("x264").run.columns.to_payload()
h = hashlib.sha256()
for key in sorted(payload):
    value = payload[key]
    h.update(key.encode())
    h.update(value if isinstance(value, bytes) else str(value).encode())
print(h.hexdigest())
print(int(columns.HAVE_NUMPY))
""" % (BUDGET, SEED)


def _digest_in_subprocess(no_numpy: bool) -> tuple[str, bool]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if no_numpy:
        env["REPRO_NO_NUMPY"] = "1"
    else:
        env.pop("REPRO_NO_NUMPY", None)
    out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    digest, have_numpy = out.stdout.split()
    return digest, bool(int(have_numpy))


def test_no_numpy_fallback_packs_identical_bytes():
    """REPRO_NO_NUMPY=1 (pure-python arrays) must produce byte-identical
    packed columns — the on-disk format cannot depend on the backend."""
    fallback_digest, have_numpy = _digest_in_subprocess(no_numpy=True)
    assert not have_numpy
    default_digest, _ = _digest_in_subprocess(no_numpy=False)
    assert fallback_digest == default_digest
