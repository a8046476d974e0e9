"""Tests for the lock-and-key temporal safety subsystem (repro.temporal)."""

import json
import pickle
import random
from dataclasses import replace

import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.errors import ReproError, TemporalViolation
from repro.ifp.config import DEFAULT_CONFIG
from repro.ifp.tag import temporal_key_of, with_temporal_key
from repro.temporal import TemporalRegistry, check_free, temporal_violation
from repro.temporal.registry import GENERATION, KEY, LIVE, SIZE
from repro.vm import Machine, MachineConfig


def _run(source, options=None, temporal="check", engine="auto"):
    program = compile_source(source, options or CompilerOptions.wrapped())
    machine = Machine(program, MachineConfig(temporal=temporal,
                                             engine=engine))
    return machine, machine.run()


# ---------------------------------------------------------------------------
# registry unit behavior
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_mint_fresh_base_starts_at_generation_one(self):
        registry = TemporalRegistry(key_bits=2)
        key = registry.mint(0x1000, 64)
        assert key == 1
        entry = registry.probe(0x1000)
        assert entry[KEY] == 1 and entry[LIVE]
        assert entry[SIZE] == 64 and entry[GENERATION] == 1

    def test_release_kills_lock_and_bumps_generation(self):
        registry = TemporalRegistry(key_bits=2)
        registry.mint(0x1000, 64)
        entry = registry.release(0x1000)
        assert entry is not None
        assert not entry[LIVE] and entry[GENERATION] == 2
        assert registry.release(0x9999) is None  # untracked

    def test_reused_base_mints_a_fresh_key(self):
        registry = TemporalRegistry(key_bits=2)
        first = registry.mint(0x1000, 64)
        registry.release(0x1000)
        second = registry.mint(0x1000, 32)
        assert second != first
        assert registry.probe(0x1000)[SIZE] == 32

    def test_keys_cycle_through_k_bit_space_never_zero(self):
        registry = TemporalRegistry(key_bits=2)
        keys = []
        for _ in range(7):
            keys.append(registry.mint(0x2000, 8))
            registry.release(0x2000)
        assert keys == [1, 2, 3, 1, 2, 3, 1]  # 2^k - 1 = 3 keys, no 0
        assert 0 not in keys

    def test_version_bumps_on_every_architectural_change(self):
        registry = TemporalRegistry()
        v0 = registry.version
        registry.mint(0x3000, 16)
        v1 = registry.version
        registry.release(0x3000)
        v2 = registry.version
        registry.mint(0x3000, 16)
        registry.corrupt(0x3000)
        v3 = registry.version
        assert v0 < v1 < v2 < v3

    def test_corrupt_rekeys_live_entry(self):
        registry = TemporalRegistry(key_bits=2)
        key = registry.mint(0x4000, 8)
        assert registry.corrupt(0x4000) is True
        entry = registry.probe(0x4000)
        assert entry[LIVE] and entry[KEY] != key
        assert registry.corrupt(0xBAD0) is False  # untracked

    def test_any_live_base_finds_only_live_locks(self):
        registry = TemporalRegistry()
        assert registry.any_live_base() is None
        registry.mint(0x5000, 8)
        registry.mint(0x6000, 8)
        registry.release(0x5000)
        assert registry.any_live_base() == 0x6000
        registry.release(0x6000)
        assert registry.any_live_base() is None

    def test_any_live_base_takes_the_lowest_bank_first_minted(self):
        # the fault-injection target: among live bases in first-mint
        # order, the first whose (base >> 4) & 15 is lowest
        rng = random.Random(7)
        for _ in range(50):
            bases = [0x10000 + 16 * i for i in range(48)]
            rng.shuffle(bases)
            registry = TemporalRegistry()
            for base in bases:
                registry.mint(base, 16)
            freed = set(rng.sample(bases, rng.randrange(48)))
            for base in freed:
                registry.release(base)
            # a re-mint keeps the base's first-mint position
            if freed:
                reminted = rng.choice(sorted(freed))
                registry.mint(reminted, 16)
                freed.discard(reminted)
            live = [base for base in bases if base not in freed]
            low = min((base >> 4) & 15 for base in live)
            assert registry.any_live_base() == next(
                base for base in live if (base >> 4) & 15 == low)

    def test_stats_and_validation(self):
        registry = TemporalRegistry(key_bits=2)
        registry.mint(0x1000, 8)
        registry.mint(0x2000, 8)
        registry.release(0x1000)
        stats = registry.stats()
        assert stats["mints"] == 2 and stats["releases"] == 1
        assert stats["live"] == 1 and stats["tracked_bases"] == 2
        with pytest.raises(ValueError):
            TemporalRegistry(key_bits=0)


# ---------------------------------------------------------------------------
# tag-bit key accessors
# ---------------------------------------------------------------------------

#: the config an armed machine runs with (DEFAULT_CONFIG reserves no
#: key bits; Machine swaps in k=2 when the temporal policy is on)
ARMED_CONFIG = replace(DEFAULT_CONFIG, temporal_key_bits=2)


class TestTagKeys:
    @pytest.mark.parametrize("selector", [1, 2, 3])
    def test_key_roundtrips_through_packed_pointer(self, selector):
        pointer = (selector << 60) | 0x2000_0000
        assert temporal_key_of(pointer, ARMED_CONFIG) == 0
        for key in (1, 2, 3):
            stamped = with_temporal_key(pointer, key, ARMED_CONFIG)
            assert temporal_key_of(stamped, ARMED_CONFIG) == key
            # the address bits survive the stamping
            assert stamped & 0xFFFF_FFFF_FFFF == 0x2000_0000

    def test_legacy_pointer_carries_no_key(self):
        assert temporal_key_of(0x2000_0000, ARMED_CONFIG) == 0
        with pytest.raises(ValueError):
            with_temporal_key(0x2000_0000, 1, ARMED_CONFIG)

    def test_disarmed_config_has_no_key_bits(self):
        pointer = (1 << 60) | 0x2000_0000
        assert temporal_key_of(pointer, DEFAULT_CONFIG) == 0
        with pytest.raises(ValueError):
            with_temporal_key(pointer, 1, DEFAULT_CONFIG)

    def test_key_wider_than_field_rejected(self):
        pointer = (1 << 60) | 0x2000_0000
        with pytest.raises(ValueError):
            with_temporal_key(pointer, 1 << ARMED_CONFIG.temporal_key_bits,
                              ARMED_CONFIG)


# ---------------------------------------------------------------------------
# free-path lock checks
# ---------------------------------------------------------------------------

class TestCheckFree:
    def test_untracked_base_defers_to_structural_checks(self):
        registry = TemporalRegistry()
        assert check_free(registry, 0x99, 0x99, 1, "freelist") is None

    def test_key_zero_is_the_untracked_sentinel(self):
        registry = TemporalRegistry()
        registry.mint(0x1000, 8)
        assert check_free(registry, 0x1000, 0x1000, 0, "freelist") is None

    def test_matching_key_passes(self):
        registry = TemporalRegistry()
        key = registry.mint(0x1000, 8)
        entry = check_free(registry, 0x1000, 0x1000, key, "freelist")
        assert entry is registry.probe(0x1000)

    def test_double_free_raises_typed_violation(self):
        registry = TemporalRegistry()
        key = registry.mint(0x1000, 8)
        registry.release(0x1000)
        with pytest.raises(TemporalViolation) as excinfo:
            check_free(registry, 0x1000, 0x1000, key, "freelist")
        assert excinfo.value.kind == "double_free"
        assert excinfo.value.origin == "free"

    def test_stale_key_free_raises_typed_violation(self):
        registry = TemporalRegistry()
        stale = registry.mint(0x1000, 8)
        registry.release(0x1000)
        registry.mint(0x1000, 8)  # base reused by a new allocation
        with pytest.raises(TemporalViolation) as excinfo:
            check_free(registry, 0x1000, 0x1000, stale, "buddy")
        assert excinfo.value.kind == "stale_free"

    def test_deref_violation_anatomy(self):
        registry = TemporalRegistry()
        stale = registry.mint(0x1000, 8)
        registry.release(0x1000)
        trap = temporal_violation("load", 0xDEAD, 0x1000, stale,
                                  registry.probe(0x1000))
        assert trap.kind == "freed_lock" and trap.lock == 0
        registry.mint(0x1000, 8)
        trap = temporal_violation("store", 0xDEAD, 0x1000, stale,
                                  registry.probe(0x1000))
        assert trap.kind == "stale_key" and trap.lock != stale


# ---------------------------------------------------------------------------
# TemporalViolation serialization (pickle + to_dict round trips)
# ---------------------------------------------------------------------------

class TestViolationSerialization:
    def _trap(self):
        return TemporalViolation(
            "temporal violation at load: pointer key 1 vs lock",
            pointer=0x1110000020000240, address=0x20000240,
            key=1, lock=2, kind="stale_key", origin="load",
            pc=("main", 12))

    def test_pickle_roundtrip_via_reduce(self):
        trap = self._trap()
        clone = pickle.loads(pickle.dumps(trap))
        assert type(clone) is TemporalViolation
        assert str(clone) == str(trap)
        assert clone.pointer == trap.pointer
        assert clone.address == trap.address
        assert (clone.key, clone.lock) == (1, 2)
        assert (clone.kind, clone.origin) == ("stale_key", "load")
        assert clone.pc == ("main", 12)

    def test_to_dict_roundtrip(self):
        trap = self._trap()
        record = json.loads(json.dumps(trap.to_dict()))
        assert record["type"] == "TemporalViolation"
        rebuilt = ReproError.from_dict(record)
        assert type(rebuilt) is TemporalViolation
        assert rebuilt.kind == "stale_key" and rebuilt.key == 1


# ---------------------------------------------------------------------------
# allocator reuse paths (guest-level, end to end)
# ---------------------------------------------------------------------------

REUSE_SOURCE = """
int g_sink = 0;
int main(void) {
    int *a = (int*)malloc(10 * sizeof(int));
    a[0] = 1;
    free(a);
    int *b = (int*)malloc(10 * sizeof(int));
    b[0] = 2;
    g_sink = a[0];
    printf("sink %d\\n", g_sink);
    free(b);
    return 0;
}
"""

REALLOC_SOURCE = """
int g_sink = 0;
int main(void) {
    int *a = (int*)malloc(10 * sizeof(int));
    a[0] = 5;
    int *old = a;
    a = (int *)realloc(a, 20 * sizeof(int));
    g_sink = old[0];
    printf("sink %d\\n", g_sink);
    free(a);
    return 0;
}
"""

CLEAN_REUSE_SOURCE = """
int g_sink = 0;
int main(void) {
    int i;
    for (i = 0; i < 4; i++) {
        int *p = (int*)malloc(10 * sizeof(int));
        p[0] = i;
        g_sink += p[0];
        free(p);
    }
    printf("sink %d\\n", g_sink);
    return 0;
}
"""


class TestAllocatorReuse:
    @pytest.mark.parametrize("options", [
        CompilerOptions.wrapped(), CompilerOptions.subheap()])
    def test_stale_pointer_into_reused_chunk_traps(self, options):
        machine, result = _run(REUSE_SOURCE, options, temporal="check")
        assert isinstance(result.trap, TemporalViolation)
        assert result.trap.kind == "stale_key"
        assert result.trap.origin == "load"
        # the reused base was re-minted with a fresh key
        assert result.trap.lock != result.trap.key

    def test_quarantine_turns_reuse_into_freed_lock(self):
        machine, result = _run(REUSE_SOURCE, CompilerOptions.wrapped(),
                               temporal="quarantine")
        assert isinstance(result.trap, TemporalViolation)
        # no reuse under quarantine: the lock is dead, not re-keyed
        assert result.trap.kind == "freed_lock"
        assert machine.freelist.quarantine
        assert machine.freelist.quarantined_bytes > 0

    def test_stale_pre_realloc_pointer_traps(self):
        _machine, result = _run(REALLOC_SOURCE, temporal="check")
        assert isinstance(result.trap, TemporalViolation)
        assert result.trap.kind in ("stale_key", "freed_lock")

    def test_wellbehaved_reuse_is_transparent(self):
        for temporal in ("off", "check", "quarantine"):
            _machine, result = _run(CLEAN_REUSE_SOURCE,
                                    temporal=temporal)
            assert result.trap is None, temporal
            assert result.output == "sink 6\n"

    def test_reuse_mints_fresh_keys_in_registry(self):
        machine, result = _run(CLEAN_REUSE_SOURCE, temporal="check")
        assert result.trap is None
        stats = machine.temporal.stats()
        assert stats["mints"] == 4 and stats["releases"] == 4
        assert stats["live"] == 0

    def test_off_policy_builds_no_registry(self):
        machine, result = _run(CLEAN_REUSE_SOURCE, temporal="off")
        assert machine.temporal is None
        assert result.trap is None

    def test_unknown_policy_rejected(self):
        program = compile_source(CLEAN_REUSE_SOURCE,
                                 CompilerOptions.wrapped())
        with pytest.raises(ReproError):
            Machine(program, MachineConfig(temporal="paranoid"))


# ---------------------------------------------------------------------------
# engine equivalence on the temporal Juliet families
# ---------------------------------------------------------------------------

class TestEngineEquivalence:
    def _observables(self, result):
        trap = result.trap
        return (result.exit_code, result.output,
                (type(trap).__name__, str(trap)) if trap else None)

    @pytest.mark.parametrize("temporal", ["check", "quarantine"])
    def test_reference_and_fastpath_agree(self, temporal):
        from repro.juliet.cases import generate_temporal_cases
        cases = generate_temporal_cases()[:10]
        for case in cases:
            pair = []
            for engine in ("reference", "auto"):
                _machine, result = _run(case.source,
                                        temporal=temporal,
                                        engine=engine)
                pair.append(self._observables(result))
            assert pair[0] == pair[1], case.name

    def test_fastpath_temporal_stats_match_reference(self):
        for engine in ("reference", "auto"):
            _machine, result = _run(REUSE_SOURCE, temporal="check",
                                    engine=engine)
            assert result.stats.temporal_checks > 0, engine
            assert result.stats.temporal_failures == 1, engine
