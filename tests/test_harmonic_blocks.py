"""Exact harmonic sums from aligned blocks and the bit-bounded block table:
the same Fractions as the product-denominator split and the row loop, in
any order of calls, with the table full, cleared or held to a small
budget."""

import itertools
import random
import sys
import threading

import pytest

from kernel_reference import harmonic_sum_loop, harmonic_sum_ref
from starshuffle.polylog import series
from starshuffle.polylog.series import _BlockTable, harmonic_sum

COMPOSITIONS = [s for d in range(1, 5) for s in itertools.product(range(1, 5), repeat=d)]
# deeper compositions, each at one of DEEP_NS, where every cell of a range
# is a merge of many pairs
DEEP = [s for d in range(5, 9) for s in itertools.product((1, 2), repeat=d)]
DEEP_NS = (31, 32, 33, 63, 64, 65, 255, 256, 257, 1000)


def _typed(value):
    return value, type(value), type(value.numerator), type(value.denominator)


def _cases():
    """(s, N, H_s(N)): N on both sides of every power of two up to 2^12
    and at 0, 1 and 15 mod 16, each with compositions of parts 1-4 and
    depth <= 4; every such composition up to N = 65 against the row
    loop, and past it against the product-denominator split.  Then every
    composition of parts 1-2 and depth 5-8 at one of DEEP_NS, against the
    product-denominator split."""
    rng = random.Random(2424)
    powers = {2**j + d for j in range(13) for d in (-1, 0, 1)}
    residues = {16 * m + d for m in (1, 2, 3, 5, 8, 13, 21, 64, 130) for d in (0, 1, 15)}
    cases = []
    for s in COMPOSITIONS:
        loop = harmonic_sum_loop(s, 65)
        for n in rng.sample(sorted(e for e in powers | residues if e <= 65), 3):
            cases.append((s, n, loop[n]))
    for n in sorted(e for e in powers | residues if e > 65):
        weight = 8 if n <= 600 else 4
        picks = [s for s in COMPOSITIONS if sum(s) <= weight]
        for s in rng.sample(picks, 2):
            cases.append((s, n, harmonic_sum_ref(s, n)))
    for i, s in enumerate(rng.sample(DEEP, len(DEEP))):
        n = DEEP_NS[i % len(DEEP_NS)]
        cases.append((s, n, harmonic_sum_ref(s, n)))
    return cases


CASES = _cases()


def test_the_cases_cover_every_edge_and_composition():
    ns = {n for _, n, _ in CASES}
    assert {2**j + d for j in range(13) for d in (-1, 0, 1)} <= ns
    assert {n % 16 for n in ns} >= {0, 1, 15}
    assert {s for s, _, _ in CASES} == set(COMPOSITIONS) | set(DEEP)
    assert {n for s, n, _ in CASES if len(s) > 4} == set(DEEP_NS)


def test_harmonic_sum_is_the_same_fraction_in_any_order_of_calls():
    for seed in (1, 2):
        series._blocks.cache_clear()
        order = CASES[:]
        random.Random(seed).shuffle(order)
        for s, n, want in order:
            assert _typed(harmonic_sum(s, n)) == _typed(want), (s, n)
    info = series._blocks.cache_info()
    assert info.hits > 0 and 0 < info.currsize <= info.maxsize


@pytest.mark.parametrize("budget", [0, 1 << 10, 1 << 14, 1 << 18])
def test_a_small_budget_keeps_the_answers_and_is_never_passed(monkeypatch, budget):
    table = series._blocks
    table.cache_clear()
    monkeypatch.setattr(table, "budget", budget)
    store = table.store

    def checked_store(*args):
        store(*args)
        info = table.cache_info()
        assert info.currsize <= info.maxsize == budget
        assert all(value.bit_length() <= budget >> series._ENTRY_SHIFT
                   for lcm, entries, _ in table._held.values()
                   for value in (lcm, *entries.values()))

    monkeypatch.setattr(table, "store", checked_store)
    cases = [case for case in CASES if case[1] <= 1100]
    random.Random(budget).shuffle(cases)
    for s, n, want in cases:
        assert _typed(harmonic_sum(s, n)) == _typed(want), (s, n)
    assert table.cache_info().currsize <= budget
    assert (table.cache_info().entries == 0) == (budget == 0)


def test_every_held_entry_is_the_loop_over_its_block():
    # an entry (t, a, j) is read by every composition with the
    # sub-composition t, so each one must be the nested sum over its block
    # as the row loop finds it, whichever merges built it
    table = series._blocks
    table.cache_clear()
    rng = random.Random(2525)
    for _ in range(40):
        s = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6)))
        harmonic_sum(s, rng.randint(32, 1100))
    assert table.cache_info().entries > 0
    for (a, j), (lcm, entries, _) in table._held.items():
        for t, value in entries.items():
            want_lcm, cells = series._leaf(t, (a << j) + 1, (a + 1) << j)
            assert (lcm, value) == (want_lcm, cells[len(t) - 1]), (t, a, j)


def test_the_table_drops_the_least_recently_used_blocks_first():
    table = _BlockTable(1 << 12)
    t = (1,)
    for a in range(4):
        table.store(a, 4, 2**63, [t], [2**100 + a])  # 64 + 101 bits a block
    assert table.cache_info() == (0, 0, 1 << 12, 4 * 165, 8)
    assert table.read(0, 4, [t]) == (2**63, [2**100])  # block 0 is now the newest
    for a in range(4, 27):  # 27 blocks pass 2^12 bits by 359
        table.store(a, 4, 2**63, [t], [2**100 + a])
        assert table.cache_info().currsize <= 1 << 12
    assert [a for a in range(27) if table.read(a, 4, [t]) is None] == [1, 2, 3]
    assert table.cache_info() == (25, 3, 1 << 12, 24 * 165, 48)
    # a second composition adds its entries to a block already held
    table.store(0, 4, 2**63, [t, (2,)], [2**100, 5])
    assert table.read(0, 4, [(2,), t]) == (2**63, [5, 2**100])
    assert table.cache_info()[3:] == (24 * 165 + 3, 49)
    # an int longer than a 2^-_ENTRY_SHIFT part of the budget is never
    # held, and a block whose lcm is that long holds nothing
    table.cache_clear()
    table.store(0, 4, 3, [t], [1 << (1 << 12 >> series._ENTRY_SHIFT)])
    assert table.cache_info().entries == 1 and table.read(0, 4, [t]) is None
    table.store(1, 4, 1 << 256, [t], [1])
    assert table.cache_info().entries == 1 and table.read(1, 4, []) is None
    table.cache_clear()
    assert table.cache_info() == (0, 0, 1 << 12, 0, 0)


def test_blocks_are_shared_across_bounds_and_compositions():
    series._blocks.cache_clear()
    harmonic_sum((1, 2, 3), 2000)
    built = series._blocks.cache_info()
    # the blocks of 2001..2003 are those of 2000, and (2, 3) and (3,) are
    # cells of (1, 2, 3)
    for s, n in (((1, 2, 3), 2003), ((2, 3), 2000), ((3,), 1999)):
        assert harmonic_sum(s, n) == harmonic_sum_ref(s, n)
    info = series._blocks.cache_info()
    assert info.misses == built.misses and info.entries == built.entries


def test_threads_sharing_the_table_get_the_right_sums_and_keep_its_count(monkeypatch):
    table = series._blocks
    table.cache_clear()
    monkeypatch.setattr(table, "budget", 1 << 16)  # so that threads also drop blocks
    cases = [case for case in CASES if 32 <= case[1] <= 600]
    wrong = []

    def work(seed):
        order = cases[:]
        random.Random(seed).shuffle(order)
        for s, n, want in order:
            if harmonic_sum(s, n) != want:
                wrong.append((s, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    # a lost update would leave the counts off the blocks held
    info = table.cache_info()
    blocks = table._held.values()
    assert info.currsize == sum(bits for _, _, bits in blocks) <= 1 << 16
    assert info.entries == sum(1 + len(entries) for _, entries, _ in blocks)
    assert info.hits + info.misses > 4 * len(cases)


def test_the_table_reads_and_holds_left_halves_only(monkeypatch):
    # _aligned yields only even a, so a right half (a odd) is never folded;
    # it is built, merged into its parent and dropped, never read or held
    table = series._blocks
    table.cache_clear()
    touched = []

    def recorded(call):
        def record(a, j, *rest):
            touched.append((call.__name__, a, j))
            return call(a, j, *rest)
        return record

    for name in ("read", "store"):
        monkeypatch.setattr(table, name, recorded(getattr(table, name)))
    for s, n, want in CASES:
        assert harmonic_sum(s, n) == want, (s, n)
    assert {name for name, _, _ in touched} == {"read", "store"}
    odd = [call for call in touched if call[1] & 1]
    assert not odd, (len(odd), odd[:3])


def test_a_smaller_bound_finds_every_block_it_folds():
    # the left halves inside H_s(2000)'s build are the blocks that the
    # sums at 1000, 1003 and 500 fold, so those read every block and build
    # none
    s = (3, 1, 2)
    series._blocks.cache_clear()
    assert harmonic_sum(s, 2000) == harmonic_sum_ref(s, 2000)
    for n in (1000, 1003, 500):
        before = series._blocks.cache_info()
        assert harmonic_sum(s, n) == harmonic_sum_ref(s, n)
        after = series._blocks.cache_info()
        folded = series._aligned(n >> series._LEAF_BITS)
        assert all(a % 2 == 0 for a, _ in folded)
        assert after.hits - before.hits == len(folded), n
        assert after.misses == before.misses, n
