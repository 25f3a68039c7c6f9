"""Persistent trace cache: round-trip, keying, invalidation, determinism."""

import zlib

import pytest

from repro.core.system import CheckMode
from repro.cpu import tracecache, traceio
from repro.harness.experiments import a510
from repro.cpu.functional import DirectMemoryPort, FunctionalCore
from repro.cpu.tracecache import TraceCache, cache_key, env_trace_cache
from repro.harness.runner import WorkloadCache, make_config
from repro.isa.assembler import assemble
from repro.mem.memory import Memory
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

BENCH = "exchange2"
BUDGET = 4000
SEED = 7


@pytest.fixture()
def run_result():
    cache = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                          trace_cache=None)
    return cache.get(BENCH).run


def test_traceio_round_trip(tmp_path, run_result):
    path = tmp_path / "run.pvtc"
    traceio.save_run(run_result, path)
    loaded = traceio.load_run(path)
    assert loaded.instructions == run_result.instructions
    assert loaded.halted == run_result.halted
    assert loaded.end_checkpoint == run_result.end_checkpoint
    assert len(loaded.columns) == len(run_result.columns)
    assert loaded.columns == run_result.columns
    assert loaded.program.instructions == run_result.program.instructions


def test_cache_key_sensitivity():
    base = cache_key(BENCH, SEED, BUDGET)
    assert base == cache_key(BENCH, SEED, BUDGET)  # stable
    assert base != cache_key("gcc", SEED, BUDGET)
    assert base != cache_key(BENCH, SEED + 1, BUDGET)
    assert base != cache_key(BENCH, SEED, BUDGET + 1)


def test_cache_key_tracks_versions(monkeypatch):
    base = cache_key(BENCH, SEED, BUDGET)
    monkeypatch.setattr(tracecache, "CACHE_VERSION", 999)
    bumped = cache_key(BENCH, SEED, BUDGET)
    assert base != bumped
    monkeypatch.undo()
    assert cache_key(BENCH, SEED, BUDGET) == base
    monkeypatch.setattr(traceio, "TRACE_SEMANTICS_VERSION", 999)
    assert cache_key(BENCH, SEED, BUDGET) != base


def test_hit_miss_and_put(tmp_path, run_result):
    tc = TraceCache(tmp_path)
    assert tc.get(BENCH, SEED, BUDGET) is None  # cold miss
    tc.put(BENCH, SEED, BUDGET, run_result)
    hit = tc.get(BENCH, SEED, BUDGET)
    assert hit is not None
    assert hit.instructions == run_result.instructions
    # Different key parameters miss even with an entry on disk.
    assert tc.get(BENCH, SEED + 1, BUDGET) is None
    assert tc.get(BENCH, SEED, BUDGET + 1) is None


def test_corrupt_entry_is_evicted(tmp_path, run_result, caplog):
    tc = TraceCache(tmp_path)
    tc.put(BENCH, SEED, BUDGET, run_result)
    path = tc.path_for(BENCH, SEED, BUDGET)
    path.write_text("{not json")
    with caplog.at_level("WARNING", logger="repro.cpu.tracecache"):
        assert tc.get(BENCH, SEED, BUDGET) is None
    assert not path.exists()  # evicted, next put can repopulate
    # The eviction is observable, not silent: one warning naming the file.
    warning = [r for r in caplog.records if "corrupt" in r.getMessage()]
    assert len(warning) == 1
    assert str(path) in warning[0].getMessage()


def test_stale_format_version_is_evicted(tmp_path, run_result):
    tc = TraceCache(tmp_path)
    path = tc.path_for(BENCH, SEED, BUDGET)
    raw = bytearray(traceio.run_to_bytes(run_result))
    raw[4] = traceio.FORMAT_VERSION - 1  # container version byte
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(zlib.compress(bytes(raw)))
    assert tc.get(BENCH, SEED, BUDGET) is None
    assert not path.exists()


def test_entries_are_compressed(tmp_path, run_result):
    tc = TraceCache(tmp_path)
    tc.put(BENCH, SEED, BUDGET, run_result)
    data = tc.path_for(BENCH, SEED, BUDGET).read_bytes()
    raw = traceio.run_to_bytes(run_result)
    assert data[0] == 0x78  # zlib magic byte
    assert len(data) < len(raw)
    assert zlib.decompress(data) == raw


def test_stats_counters(tmp_path, run_result):
    from repro.obs import StatGroup

    tc = TraceCache(tmp_path)
    assert tc.get(BENCH, SEED, BUDGET) is None
    assert tc.stats.misses == 1 and tc.stats.hits == 0
    assert tc.stats.hit_rate == 0.0
    tc.put(BENCH, SEED, BUDGET, run_result)
    written = tc.stats.bytes_written
    assert written > 0
    assert tc.get(BENCH, SEED, BUDGET) is not None
    assert tc.stats.hits == 1
    assert tc.stats.bytes_read == written
    assert tc.stats.hit_rate == 0.5
    group = StatGroup("trace_cache")
    tc.stats.export_stats(group)
    flat = group.flatten()
    assert flat["hits"] == 1 and flat["misses"] == 1
    assert flat["bytes_written"] == written


def test_purge_empties_the_cache(tmp_path, run_result):
    tc = TraceCache(tmp_path)
    tc.put(BENCH, SEED, BUDGET, run_result)
    tc.put(BENCH, SEED + 1, BUDGET, run_result)
    assert tc.info()["entries"] == 2
    assert tc.purge() == 2
    assert tc.info()["entries"] == 0
    assert tc.get(BENCH, SEED, BUDGET) is None


def test_env_trace_cache(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    assert env_trace_cache() is None
    monkeypatch.setenv("REPRO_TRACE_CACHE", "")
    assert env_trace_cache() is None
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    assert env_trace_cache() is None
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    tc = env_trace_cache()
    assert tc is not None and tc.directory == tmp_path


def test_cached_run_config_is_bit_identical(tmp_path):
    config = make_config([a510(2.0)] * 2, CheckMode.OPPORTUNISTIC)
    uncached = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                             trace_cache=None)
    want = uncached.run_config(BENCH, config)

    tc = TraceCache(tmp_path)
    warm = WorkloadCache(max_instructions=BUDGET, seed=SEED, trace_cache=tc)
    warm.run_config(BENCH, config)  # populates the disk cache
    assert tc.get(BENCH, SEED, BUDGET) is not None

    cold = WorkloadCache(max_instructions=BUDGET, seed=SEED, trace_cache=tc)
    got = cold.run_config(BENCH, config)  # loads the trace from disk

    assert got.baseline_time_ns == want.baseline_time_ns
    assert got.checked_time_ns == want.checked_time_ns
    assert got.slowdown == want.slowdown
    assert got.coverage == want.coverage
    assert got.stall_ns == want.stall_ns
    assert got.segments == want.segments
    assert got.lsl_bytes == want.lsl_bytes
    assert got.main_timing.cycles == want.main_timing.cycles
    assert got.baseline_timing.cycles == want.baseline_timing.cycles


def test_round_tripped_program_reproduces_run():
    """A program loaded from JSON yields the same functional trace."""
    program = build_program(get_profile(BENCH), seed=SEED)
    round_tripped = traceio.program_from_json(
        traceio.program_to_json(program))
    assert round_tripped.instructions == program.instructions
    assert round_tripped.memory_image == program.memory_image


def test_concurrent_writers_never_publish_torn_entries(tmp_path,
                                                       run_result):
    """Same-process concurrent writers (serve pool tasks, threads) must
    each use a unique temp file: readers only ever see complete entries,
    and no temp files survive."""
    import threading

    tc = TraceCache(tmp_path)
    errors = []
    stop = threading.Event()

    def writer():
        try:
            for _ in range(5):
                tc.put(BENCH, SEED, BUDGET, run_result)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def reader():
        try:
            while not stop.is_set():
                hit = tc.get(BENCH, SEED, BUDGET)
                # A miss (not-yet-written) is fine; a torn entry is not.
                if hit is not None:
                    assert hit.instructions == run_result.instructions
                    assert len(hit.columns) == len(run_result.columns)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    writers = [threading.Thread(target=writer) for _ in range(6)]
    readers = [threading.Thread(target=reader) for _ in range(2)]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    stop.set()
    for thread in readers:
        thread.join()

    assert not errors
    final = tc.get(BENCH, SEED, BUDGET)
    assert final is not None
    assert final.instructions == run_result.instructions
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_put_failure_leaves_no_temp_files(tmp_path, run_result,
                                          monkeypatch):
    tc = TraceCache(tmp_path)

    def failing_replace(src, dst):
        raise OSError("disk full")

    # Fail at publication time, after the temp file has been written,
    # exercising the cleanup path.
    monkeypatch.setattr(tracecache.os, "replace", failing_replace)
    with pytest.raises(OSError):
        tc.put(BENCH, SEED, BUDGET, run_result)
    assert list(tmp_path.iterdir()) == []


# -- container integrity: truncations and bit flips ---------------------------


def _small_run():
    program = assemble(
        """
        addi x1, x0, 5
        lui x2, 0x1000
        loop:
        ld x3, 0(x2)
        st x3, 8(x2)
        subi x1, x1, 1
        bne x1, x0, loop
        halt
        """
    )
    return FunctionalCore(program, DirectMemoryPort(Memory())).run(1000)


def _same_run(a, b):
    return (a.columns == b.columns
            and a.program.instructions == b.program.instructions
            and a.program.memory_image == b.program.memory_image
            and a.start_checkpoint == b.start_checkpoint
            and a.end_checkpoint == b.end_checkpoint
            and a.halted == b.halted
            and a.instructions == b.instructions
            and a.class_counts == b.class_counts)


def _damaged_get(tc, key, run, blob):
    """Publish ``blob`` as the entry for ``key``; a hit must equal ``run``
    and a miss must evict the file.  Then a put/get must round-trip."""
    path = tc.path_for(*key)
    path.write_bytes(blob)
    hit = tc.get(*key)
    if hit is None:
        assert not path.exists()
    else:
        assert _same_run(hit, run)
    tc.put(*key, run)
    again = tc.get(*key)
    assert again is not None and _same_run(again, run)
    return hit


def test_every_bit_flip_is_a_miss_or_the_stored_run(tmp_path):
    run = _small_run()
    tc = TraceCache(tmp_path)
    key = ("small", 0, 1000)
    tc.put(*key, run)
    blob = tc.path_for(*key).read_bytes()
    misses = 0
    for offset in range(len(blob)):
        damaged = bytearray(blob)
        damaged[offset] ^= 1 << (offset % 8)  # every bit position in turn
        misses += _damaged_get(tc, key, run, bytes(damaged)) is None
    assert misses > 0


@pytest.mark.parametrize("where", ["zero", "one", "mid", "last"])
def test_truncated_entry_is_a_miss(tmp_path, where):
    run = _small_run()
    tc = TraceCache(tmp_path)
    key = ("small", 0, 1000)
    tc.put(*key, run)
    blob = tc.path_for(*key).read_bytes()
    cut = {"zero": 0, "one": 1, "mid": len(blob) // 2,
           "last": len(blob) - 1}[where]
    assert _damaged_get(tc, key, run, blob[:cut]) is None


def test_x264_flip_that_zlib_accepts_is_a_miss(tmp_path):
    """A single-bit flip 100 bytes before the end of this x264 entry
    decodes to a well-formed zlib stream (Adler-32 intact) whose branch
    plane differs from the stored one; the container's SHA-256 trailer
    is what turns it into a miss."""
    run = WorkloadCache(max_instructions=3000, seed=7,
                        trace_cache=None).get("x264").run
    tc = TraceCache(tmp_path)
    key = ("x264", 7, 3000)
    tc.put(*key, run)
    blob = tc.path_for(*key).read_bytes()
    damaged = bytearray(blob)
    damaged[len(blob) - 100] ^= 1 << 7
    _damaged_get(tc, key, run, bytes(damaged))
    # The same kind of damage, made independent of how deflate laid out
    # this blob: branch-plane bytes changed under a valid zlib checksum.
    raw = bytearray(zlib.decompress(blob))
    b_next = raw.index(run.columns.to_payload()["b_next"])
    for offset in range(b_next, b_next + 4):
        raw[offset] ^= 0x01
    assert _damaged_get(tc, key, run, zlib.compress(bytes(raw))) is None
