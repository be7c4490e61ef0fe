"""The stacked probe pass against the per-geometry loop it replaced.

``run_battery`` probes the battery's geometries in stacks of up to
``_BLOCK // probes`` layers, category by category.  The reference here is
the loop it replaced: each geometry in battery order, as a stack of one,
stopping at the first that fired.  Every summary, witness, ``checked``
count and note must agree.
"""

from __future__ import annotations

import collections
import itertools

import pytest

from fatpoints3 import oracle
from fatpoints3.divclass import ThreefoldClass, parse_class

ORACLE_CLASSES = (
    "L3(5; 2^5, 1^7)", "L3(4; 1^8)", "L3(6; 3, 2^6, 1^4)", "L3(9; 4, 3^6, 2^4)",
    "L3(3; 1^10)", "L3(8; 3^10)", "L3(7; 2^13)",
    "L3(2; 1^7)", "L3(4; 2, 1^13)", "L3(8; 3^10, 1)", "L3(10; 3^13)",
    "L3(8; 3^12)",
)
# the sweep box: d = 6, r <= 10, m <= 3
SWEEP_BOX = [ThreefoldClass(6, tuple(sorted(m, reverse=True))) for r in range(11)
             for m in itertools.combinations_with_replacement(range(1, 4), r)]


def reference_pass(systems, c, nprobes, probe):
    """The per-geometry loop: ``probe`` on each geometry in order, up to
    the first that fired."""
    flags, first = [], None
    for sysd in systems:
        report = probe(sysd.geometry, c, nprobes, sysd)
        flags.append((sysd.prime, sysd.seed, report.fired))
        if report.fired:
            first = report
            break
    return oracle.ProbeSummary(first is not None, tuple(flags), first).to_dict()


def check_battery(c, primes, seeds, nprobes):
    c = c.normalized()
    report = oracle.run_battery(c, primes, seeds, probes=nprobes)
    systems = [oracle.solve_system(oracle.get_geometry(p, s, max(oracle.DEFAULT_POINTS, c.r)), c)
               for p in primes for s in seeds]
    assert report.base.to_dict() == reference_pass(systems, c, nprobes, oracle.probe_base_locus)
    assert report.separation.to_dict() == reference_pass(
        systems, c, nprobes, oracle.probe_separation)
    return report


@pytest.mark.parametrize("seed", (0, 1))
def test_sweep_box_matches_the_per_geometry_loop(seed):
    fired = collections.Counter()
    for c in SWEEP_BOX:
        report = check_battery(c, oracle.PRIMES, (seed,), 16)
        fired[report.base.fired, report.separation.fired] += 1
    # quiet classes, and classes that fire on one probe or both
    assert len(fired) >= 3


@pytest.mark.parametrize("nprobes", (16, 64))
@pytest.mark.parametrize("txt", ORACLE_CLASSES)
def test_oracle_classes_match_the_per_geometry_loop(txt, nprobes):
    check_battery(parse_class(txt), oracle.PRIMES, oracle.DEFAULT_SEEDS, nprobes)


@pytest.mark.parametrize("txt", ("L3(5; 2^5, 1^7)", "L3(6; 4, 3)", "L3(1; 1)", "L3(3; 1^10)"))
def test_a_battery_that_lists_a_prime_twice(txt):
    # the stacks [4, 2] hold the layers of 65537 apart from each other
    check_battery(parse_class(txt), (65537, 2147483647, 65537), (0, 1), 16)


def spy_tests(monkeypatch):
    """(category, block length, layers of the block) of every evaluation of
    a category test from here on."""
    calls = []

    def spy(name, test):
        def recorded(stack, block, at):
            calls.append((name, len(block), sorted(set(at.tolist()))))
            return test(stack, block, at)
        return recorded

    for table in ("_BASE_CATEGORIES", "_SEPARATION_CATEGORIES"):
        rows = getattr(oracle, table)
        monkeypatch.setattr(oracle, table, tuple(r[:3] + (spy(r[0], r[3]),) + r[4:] for r in rows))
    return calls


@pytest.mark.parametrize("nprobes", (16, 64))
def test_no_evaluation_holds_more_than_a_block(monkeypatch, nprobes):
    calls = spy_tests(monkeypatch)
    primes = oracle.PRIMES
    seeds = oracle.DEFAULT_SEEDS
    for txt in ("L3(5; 2^5, 1^7)", "L3(1; 1)"):
        report = oracle.run_battery(parse_class(txt), primes, seeds, probes=nprobes)
        assert len(report.base.trials) == 15  # quiet on every geometry
    assert calls and max(n for _, n, _ in calls) <= oracle._BLOCK
    layers = max(len(at) for *_, at in calls)
    assert layers == max(1, oracle._BLOCK // nprobes)


def test_a_quiet_sweep_class_evaluates_each_category_once(monkeypatch):
    calls = spy_tests(monkeypatch)
    c = parse_class("L3(6; 2^5, 1^5)")
    report = oracle.run_battery(c, seeds=(0,), probes=16)
    assert not report.base.fired and not report.separation.fired
    assert len(report.base.trials) == len(report.separation.trials) == 3
    names = [r[0] for r in oracle._BASE_CATEGORIES + oracle._SEPARATION_CATEGORIES]
    assert collections.Counter(name for name, *_ in calls) == collections.Counter(names)
    assert all(at == [0, 1, 2] for *_, at in calls)


def test_fresh_curve_rewinds_inside_a_stack(monkeypatch):
    # the one class Tier-1 runs through _fresh_curve's rewind: at 65537 the
    # curve has about 65537 points, and at 100 probes a pair-on-curve draw
    # of geometry 0 falls on an assigned point, so the draws after it are
    # read again.  Here that layer heads a stack whose other layers lie on
    # other primes; a stack holds so many layers only when built directly
    rewinds = []
    lift = oracle._lift

    def spy(words, draws):
        # the rewind lifts one draw at a time; a round lifts them all
        if len(draws) == 1:
            rewinds.append(words.p)
        return lift(words, draws)

    c = parse_class("L3(4; 2, 1^5)")
    geoms = [oracle.get_geometry(p, 0) for p in (65537, 2147483647, 1073741827)]
    monkeypatch.setattr(oracle, "_lift", spy)
    stacked = oracle._reports([oracle._Probe("separation", g, c, 100, None) for g in geoms])
    assert rewinds == [65537]
    rewinds.clear()
    reference = []
    for g in geoms:
        reference.append(oracle.probe_separation(g, c, 100))
        if reference[-1].fired:
            break
    assert rewinds == [65537]
    assert [r.to_dict() for r in stacked] == [r.to_dict() for r in reference]
    assert len(stacked) == 3 and not any(r.fired for r in stacked)


def test_a_stack_indexes_its_curve_words_together(monkeypatch):
    # each curve category draws every live layer's word block up front and
    # indexes them all in one _index call; a layer that indexed its words
    # alone, or a stream that grew its block, would add a call
    c = parse_class("L3(6; 2^5, 1^5)")
    for p in oracle.PRIMES:
        oracle.get_geometry(p, 0)  # its points are curve draws too
    events = spy_tests(monkeypatch)
    index = oracle._index

    def spy(stack):
        events.append(("index", [words.p for words in stack], [len(words.words) for words in stack]))
        return index(stack)

    monkeypatch.setattr(oracle, "_index", spy)
    report = oracle.run_battery(c, seeds=(0,), probes=16)
    assert not report.base.fired and not report.separation.fired
    curve = [r[0] for r in oracle._BASE_CATEGORIES + oracle._SEPARATION_CATEGORIES if r[-1]]
    assert len(curve) == 4
    indexed = [events[i + 1][0] for i, event in enumerate(events) if event[0] == "index"]
    assert indexed == curve
    for event in events:
        if event[0] == "index":
            assert event[1] == list(oracle.PRIMES) and all(n > 0 for n in event[2])
