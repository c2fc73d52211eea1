import contextlib
import io
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcnoise.cli import main
from sdcnoise.errors import DomainError, ProgrammeError
from sdcnoise.redundancy import (
    IRR,
    count_k_t,
    enumerate_irrs,
    optimize_kt2,
    rank_statistics,
    statistic_universe,
)
from sdcnoise.tables import (
    Breakdown,
    StatisticKey,
    TableProgramme,
    TableSpec,
    parse_programme,
)

SEX_AGE = parse_programme(
    {
        "breakdowns": [
            {"id": "SEX", "categories": ["F", "M"]},
            {"id": "AGE", "categories": ["young", "old"]},
        ],
        "tables": [{"id": "T1", "breakdowns": ["SEX", "AGE"]}],
    }
)

DUPLICATED = parse_programme(
    {
        "breakdowns": [
            {"id": "SEX", "categories": ["F", "M"]},
            {"id": "AGE", "categories": ["young", "old"]},
        ],
        "tables": [
            {"id": "T1", "breakdowns": ["SEX", "AGE"]},
            {"id": "T2", "breakdowns": ["SEX", "AGE"]},
        ],
    }
)

TOTAL = StatisticKey(frozenset())


def _random_programme(rng, max_tables=6):
    ids = ["B%d" % i for i in range(5)]
    breakdowns = [
        Breakdown(id=bid, categories=tuple("c%d" % j for j in range(rng.randint(1, 4))))
        for bid in ids
    ]
    tables = []
    for ti in range(rng.randint(1, max_tables)):
        dims = rng.sample(ids, rng.randint(1, 4))
        tables.append(TableSpec(id="T%d" % ti, breakdowns=tuple(dims)))
    return TableProgramme(breakdowns, tables)


def test_enumerate_irrs_total_of_single_table():
    for spsn in (True, False):
        irrs = enumerate_irrs(SEX_AGE, TOTAL, spsn=spsn)
        assert sorted(i.k_weight for i in irrs) == [1, 2, 2, 4]


def test_enumerate_irrs_duplicated_tables():
    assert len(enumerate_irrs(DUPLICATED, TOTAL, spsn=True)) == 4
    without = enumerate_irrs(DUPLICATED, TOTAL, spsn=False)
    assert len(without) == 8
    assert {i.table_id for i in without} == {"T1", "T2"}


def test_enumerate_irrs_full_table_key():
    irrs = enumerate_irrs(SEX_AGE, StatisticKey(frozenset({"SEX", "AGE"})))
    assert len(irrs) == 1
    assert irrs[0].k_weight == 1 and irrs[0].summed_out == frozenset()


def test_enumerate_irrs_uncontained_statistic():
    prog = parse_programme(
        {
            "breakdowns": [
                {"id": "SEX", "categories": ["F", "M"]},
                {"id": "POB", "categories": ["native", "other"]},
            ],
            "tables": [{"id": "T1", "breakdowns": ["SEX"]}],
        }
    )
    with pytest.raises(DomainError, match="not contained"):
        enumerate_irrs(prog, StatisticKey(frozenset({"POB"})))


def test_count_k_t_footnote_values():
    stats = count_k_t(enumerate_irrs(SEX_AGE, TOTAL))
    assert (stats.t, stats.k) == (4, 9)
    assert stats.ratio == pytest.approx(9 / 16)
    sex = count_k_t(enumerate_irrs(SEX_AGE, StatisticKey(frozenset({"SEX"}))))
    assert (sex.t, sex.k) == (2, 3)
    assert sex.ratio == pytest.approx(3 / 4)
    cell = count_k_t(enumerate_irrs(SEX_AGE, StatisticKey(frozenset({"SEX", "AGE"}))))
    assert (cell.t, cell.k, cell.ratio) == (1, 1, 1.0)


def test_count_k_t_rejects_empty():
    with pytest.raises(DomainError):
        count_k_t([])


def test_optimize_greedy_stops_at_first_increase():
    irrs = [IRR(summed_out=frozenset({c}), k_weight=w) for c, w in zip("abcd", (1, 2, 2, 4))]
    best = optimize_kt2(irrs)
    assert (best.t, best.k) == (3, 5)
    assert best.ratio == pytest.approx(5 / 9)


def test_optimize_exhaustive_subset_oracle():
    irrs = [IRR(summed_out=frozenset({c}), k_weight=w) for c, w in zip("abcd", (1, 2, 2, 4))]
    greedy = optimize_kt2(irrs).ratio
    best = min(
        sum(i.k_weight for i in sub) / len(sub) ** 2
        for size in range(1, len(irrs) + 1)
        for sub in itertools.combinations(irrs, size)
    )
    # on this instance greedy attains the true optimum
    assert greedy == pytest.approx(best)


def test_optimize_single_and_uniform_weights():
    one = optimize_kt2([IRR(summed_out=frozenset(), k_weight=1)])
    assert (one.t, one.k, one.ratio) == (1, 1, 1.0)
    ones = [IRR(summed_out=frozenset({"b%d" % i}), k_weight=1) for i in range(6)]
    allin = optimize_kt2(ones)
    assert allin.t == 6
    assert allin.ratio == pytest.approx(1 / 6)


def test_greedy_ratio_sequence_strictly_decreases():
    rng = random.Random(17)
    for _ in range(50):
        irrs = [
            IRR(summed_out=frozenset({"b%d" % i}), k_weight=rng.randint(1, 12))
            for i in range(rng.randint(1, 10))
        ]
        admitted = optimize_kt2(irrs).irrs
        ratios = []
        k = t = 0
        for irr in admitted:
            k, t = k + irr.k_weight, t + 1
            ratios.append(k / t**2)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        # stopping point: the next sorted IRR (if any) would not improve the ratio
        ordered = sorted(irrs, key=IRR.sort_key)
        if len(admitted) < len(ordered):
            nxt = ordered[len(admitted)]
            worse = (k + nxt.k_weight) / (t + 1) ** 2
            assert worse >= ratios[-1]


def test_k_weight_geo_overrides():
    irrs = enumerate_irrs(
        SEX_AGE, TOTAL, geo_cardinalities={"AGE": 100}
    )
    assert sorted(i.k_weight for i in irrs) == [1, 2, 100, 200]


def test_geo_overrides_are_validated():
    with pytest.raises(ProgrammeError, match="'FOO'"):
        enumerate_irrs(SEX_AGE, TOTAL, geo_cardinalities={"FOO": 3})
    for size in (0, -2):
        with pytest.raises(DomainError, match="at least 1"):
            enumerate_irrs(SEX_AGE, StatisticKey(frozenset({"SEX", "AGE"})), geo_cardinalities={"AGE": size})
    with pytest.raises(DomainError, match="override AGE gives total an IRR weight beyond floats"):
        enumerate_irrs(SEX_AGE, TOTAL, geo_cardinalities={"AGE": 10**400})
    # the largest weight that is a float still ranks
    largest = int(sys.float_info.max)
    stats = optimize_kt2(enumerate_irrs(SEX_AGE, StatisticKey(frozenset({"SEX"})), geo_cardinalities={"AGE": largest}))
    assert (stats.t, stats.k, stats.ratio) == (1, 1, 1.0)


def test_programme_lattice_and_category_index():
    assert SEX_AGE.released == (
        ("T1", frozenset()),
        ("T1", frozenset({"AGE"})),
        ("T1", frozenset({"SEX"})),
        ("T1", frozenset({"AGE", "SEX"})),
    )
    assert SEX_AGE.category_index == {"SEX": {"F": 0, "M": 1}, "AGE": {"young": 0, "old": 1}}


def complement_irrs(programme, target, spsn, overrides):
    """IRRs table by table from the combinations of the complement of the target."""
    irrs, seen = [], set()
    for table in programme.tables:
        if not target <= table.breakdown_set:
            continue
        complement = sorted(table.breakdown_set - target)
        for size in range(len(complement) + 1):
            for combo in itertools.combinations(complement, size):
                summed = frozenset(combo)
                if spsn and summed in seen:
                    continue
                seen.add(summed)
                k = math.prod(overrides.get(bid, programme.breakdown(bid).cardinality) for bid in summed)
                irrs.append(IRR(summed, k, None if spsn else table.id))
    return irrs


def complement_universe(programme):
    """Statistics of every table's combinations, by dimension then sorted ids."""
    seen = set()
    for table in programme.tables:
        ids = sorted(table.breakdowns)
        for size in range(len(ids) + 1):
            seen.update(frozenset(combo) for combo in itertools.combinations(ids, size))
    return [StatisticKey(s) for s in sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))]


@st.composite
def programmes_with_overrides(draw):
    """1-5 breakdowns, 1-5 tables in any breakdown order, and some cardinality overrides."""
    names = draw(st.permutations(["GEO", "SEX", "AGE", "POB", "ETH"]))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    breakdowns = [Breakdown(id=bid, categories=tuple(f"c{j}" for j in range(size))) for bid, size in zip(names, sizes)]
    ids = [b.id for b in breakdowns]
    tables = [
        TableSpec(id=f"T{t}", breakdowns=tuple(draw(st.permutations(ids))[: draw(st.integers(1, len(ids)))]))
        for t in range(draw(st.integers(1, 5)))
    ]
    overrides = draw(st.dictionaries(st.sampled_from(ids), st.integers(1, 500)))
    return TableProgramme(breakdowns, tables), overrides


@settings(max_examples=300, deadline=None)
@given(programmes_with_overrides(), st.booleans())
def test_lattice_irrs_equal_per_table_complement_combinations(case, spsn):
    programme, overrides = case
    universe = statistic_universe(programme)
    assert universe == complement_universe(programme)
    for key in universe:
        got = enumerate_irrs(programme, key, spsn=spsn, geo_cardinalities=overrides or None)
        assert got == complement_irrs(programme, key.breakdown_ids, spsn, overrides)


def test_spsn_dominance_randomized():
    rng = random.Random(2718)
    checked = 0
    for _ in range(100):
        prog = _random_programme(rng)
        for target in statistic_universe(prog):
            with_spsn = enumerate_irrs(prog, target, spsn=True)
            without = enumerate_irrs(prog, target, spsn=False)
            assert len(with_spsn) <= len(without)
            opt_with = optimize_kt2(with_spsn).ratio
            opt_without = optimize_kt2(without).ratio
            assert opt_with >= opt_without - 1e-12
            checked += 1
    assert checked > 100


def test_irr_stats_invariants():
    stats = count_k_t(enumerate_irrs(SEX_AGE, TOTAL))
    assert stats.k >= stats.t
    with pytest.raises(DomainError):
        count_k_t([IRR(summed_out=frozenset(), k_weight=0)]).ratio


def test_statistic_universe_dedup_and_order():
    universe = statistic_universe(DUPLICATED)
    labels = [k.label() for k in universe]
    assert labels == ["total", "AGE", "SEX", "AGE*SEX"]


def test_rank_statistics_by_t():
    ranked = rank_statistics(SEX_AGE, order="t")
    assert [(s.target.label(), s.raw.t) for s in ranked] == [
        ("total", 4),
        ("AGE", 2),
        ("SEX", 2),
        ("AGE*SEX", 1),
    ]


def test_rank_statistics_by_ratio():
    ranked = rank_statistics(SEX_AGE, order="ratio")
    ratios = [s.optimized.ratio for s in ranked]
    assert ratios == sorted(ratios)
    with pytest.raises(DomainError):
        rank_statistics(SEX_AGE, order="weird")


def test_ranking_csv_layout():
    # the CLI writes the ranking; the bundled sex-age demo is SEX_AGE
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        main(["analyze", "sex-age", "--spsn"])
    assert exit_.value.code == 0
    lines = [l for l in out.getvalue().strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "statistic,spsn,t,k,ratio,opt_t,opt_k,opt_ratio"
    total_row = next(l for l in lines if l.startswith("total,"))
    assert total_row.split(",")[:5] == ["total", "1", "4", "9", "0.5625"]
