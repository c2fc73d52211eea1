"""Array-cube tabulation against per-record references.

The release pipeline counts each table once as a numpy cube and sums axes
for its marginals; record keys are summed the same way as uint64 cubes.
These properties pin both to the record-by-record definitions, and pin
seeded releases to recorded digests.  The exact and SPSN cell-key digests
were taken from the record-by-record implementation the cubes replaced; the
other noisy digests were re-recorded when independent draws moved from
``sorted(cells)`` label order to row-major cube order, the same draw stream
reassigned to cells, which one test here regenerates draw by draw.  The
averaging attack's per-statistic estimate cubes are pinned bit for bit to
the mean of per-cell IRR sums.
"""

import hashlib
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcnoise import attacks as attacks_module
from sdcnoise import noise, redundancy
from sdcnoise.errors import ProgrammeError
from sdcnoise.noise import (
    CellKey,
    Laplace,
    TruncatedLaplace,
    TwoTailedGeometric,
    sample_noise,
)
from sdcnoise.attacks import NoisyOutput, averaging_estimates, perturb_outputs, run_averaging_attack
from sdcnoise.redundancy import count_k_t, enumerate_irrs, optimize_kt2, statistic_universe
from sdcnoise.tables import (
    Breakdown,
    Microdata,
    StatisticKey,
    TableProgramme,
    TableSpec,
    encode,
    enumerate_subtables,
    parse_programme,
    read_microdata,
    table_counts,
    tabulate,
)

from record_keys import RecordKey, cell_key, cell_key_noise


@st.composite
def programmes_with_data(draw, max_records=40, min_tables=1):
    """A random programme of 1-4 breakdowns and ``min_tables``-3 tables, with microdata."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    breakdowns = [
        Breakdown(id=f"B{i}", categories=tuple(f"c{j}" for j in range(size)))
        for i, size in enumerate(sizes)
    ]
    ids = [b.id for b in breakdowns]
    tables = [
        TableSpec(id=f"T{t}", breakdowns=tuple(draw(st.permutations(ids))[: draw(st.integers(1, len(ids)))]))
        for t in range(draw(st.integers(min_tables, 3)))
    ]
    records = draw(
        st.lists(st.tuples(*(st.sampled_from(b.categories) for b in breakdowns)), max_size=max_records)
    )
    return TableProgramme(breakdowns, tables), Microdata(columns=tuple(ids), records=tuple(records))


def per_record_counts(programme, data, key):
    """Count records cell by cell, the definition a tabulation must meet."""
    columns = [data.column_index(bid) for bid in key.sorted_ids]
    counts = {cell: 0 for cell in programme.cells(key)}
    for record in data.records:
        counts[tuple(record[i] for i in columns)] += 1
    return counts


def per_record_keys(programme, data, key, record_keys):
    """RecordKey lists of every cell of a statistic, zeros included."""
    columns = [data.column_index(bid) for bid in key.sorted_ids]
    members = {cell: [] for cell in programme.cells(key)}
    for record, fraction in zip(data.records, record_keys):
        members[tuple(record[i] for i in columns)].append(RecordKey(int(fraction)))
    return members


def marginal(cube, ids, keep):
    """Sum the cube over ``ids`` down to the axes in ``keep``, kept in order; uint64 wraps."""
    axes = tuple(i for i, bid in enumerate(ids) if bid not in keep)
    return np.asarray(cube.sum(axis=axes, dtype=cube.dtype))


def key_cube(programme, data, ids, record_keys):
    """Wrapped uint64 sums of the record keys over the cube of ``ids``."""
    flat, counts = table_counts(programme, data, ids)
    keys = np.zeros(counts.size, dtype=np.uint64)
    np.add.at(keys, flat, record_keys)
    return keys.reshape(counts.shape)


@settings(max_examples=60, deadline=None)
@given(programmes_with_data())
def test_cube_marginals_match_per_record_tabulation(case):
    programme, data = case
    for table in programme.tables:
        ids = tuple(sorted(table.breakdowns))
        _, cube = table_counts(programme, data, ids)
        for sub in enumerate_subtables(table):
            want = per_record_counts(programme, data, sub)
            got = marginal(cube, ids, sub.breakdown_ids)
            assert dict(zip(programme.cells(sub), got.ravel().tolist())) == want
            assert tabulate(programme, data, sub) == want


@settings(max_examples=60, deadline=None)
@given(programmes_with_data(), st.integers(0, 2**32 - 1))
def test_release_exact_and_cell_key_noise_match_scalar_reference(case, seed):
    programme, data = case
    spec = CellKey(variance=1.0, bound=2)
    ptable = spec.ptable()
    output = perturb_outputs(programme, data, spec, seed, spsn=True)
    # the codes are memoised on the microdata: a second release reads them back
    codes = encode(programme, data, programme.breakdowns)
    assert perturb_outputs(programme, data, spec, seed, spsn=True) == output
    for bid, array in encode(programme, data, programme.breakdowns).items():
        assert array is codes[bid] and not array.flags.writeable
    record_keys = np.random.default_rng(seed).integers(0, 2**64, size=data.n, dtype=np.uint64)
    for ids, exact in output.exact.items():
        key = StatisticKey(ids)
        assert exact == per_record_counts(programme, data, key)
        members = per_record_keys(programme, data, key, record_keys)
        assert output.tables[(None, ids)] == {
            cell: count + cell_key_noise(members[cell], ptable) for cell, count in exact.items()
        }


@settings(max_examples=60, deadline=None)
@given(programmes_with_data(max_records=60), st.randoms(use_true_random=False))
def test_cube_cell_keys_are_bit_exact_and_order_free(case, rnd):
    programme, data = case
    rng = np.random.default_rng(rnd.getrandbits(32))
    record_keys = rng.integers(0, 2**64, size=data.n, dtype=np.uint64)
    order = list(range(data.n))
    rnd.shuffle(order)
    shuffled = Microdata(data.columns, tuple(data.records[i] for i in order))
    for table in programme.tables:
        ids = tuple(sorted(table.breakdowns))
        cube = key_cube(programme, data, ids, record_keys)
        assert np.array_equal(cube, key_cube(programme, shuffled, ids, record_keys[order]))
        for sub in enumerate_subtables(table):
            members = per_record_keys(programme, data, sub, record_keys)
            sums = marginal(cube, ids, sub.breakdown_ids).ravel()
            keys = (sums / 2.0**64).tolist()
            for cell, total, key in zip(programme.cells(sub), sums.tolist(), keys):
                assert total == sum(rk.fraction for rk in members[cell]) % 2**64
                assert key == cell_key(members[cell])


class HighKeys(np.random.Generator):
    """A release generator whose record keys sit in the top quarter below 2**64: any two sum past 2**64.

    A wrapped sum of a few keys lands anywhere in [0, 2**64), while an unwrapped one would pin every cell key at +E.
    """

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        return np.uint64(2**64 - 2**62) + super().integers(0, 2**62, size=size, dtype=np.uint64)


@settings(max_examples=60, deadline=None)
@given(programmes_with_data(min_tables=2), st.integers(0, 2**32 - 1))
def test_planned_statistics_match_every_table_holding_them(case, seed):
    """Every table holds the total, so with two tables or more some statistic sits in several."""
    programme, data = case
    spec = CellKey(variance=2.0, bound=3)
    for data in (data, Microdata(data.columns, ())):  # n = 0 included
        exact = perturb_outputs(programme, data, None, seed).cubes
        output = perturb_outputs(programme, data, spec, HighKeys(np.random.PCG64(seed)))
        record_keys = HighKeys(np.random.PCG64(seed)).integers(0, 2**64, size=data.n, dtype=np.uint64)
        assert data.n < 2 or sum(map(int, record_keys)) >= 2**64  # the key sums wrap
        for table in programme.tables:
            ids = tuple(sorted(table.breakdowns))
            counts, keys = table_counts(programme, data, ids)[1], key_cube(programme, data, ids, record_keys)
            for stat in (sub.breakdown_ids for sub in enumerate_subtables(table)):
                want = marginal(counts, ids, stat)
                assert exact[(None, stat)].dtype == want.dtype and np.array_equal(exact[(None, stat)], want)
                assert list(output.exact[stat].values()) == want.ravel().tolist()
                noise = spec.ptable().quantile(marginal(keys, ids, stat) / 2.0**64)
                assert np.array_equal(output.cubes[(None, stat)] - want, noise)


def irr_cells(programme, output, irr, target):
    """The noisy cells one IRR of one cell sums: the cell indexed in the source cube, the rest sliced."""
    stat_ids = target.breakdown_ids | irr.summed_out
    cell = {bid: programme.category_index[bid][value] for bid, value in zip(target.sorted_ids, target.cell)}
    index = tuple(cell.get(bid, slice(None)) for bid in sorted(stat_ids))
    return np.ravel(output.cubes[(irr.table_id, stat_ids)][index])


@settings(max_examples=60, deadline=None)
@given(
    programmes_with_data(),
    st.sampled_from([CellKey(variance=2.0, bound=3), Laplace(0.5)]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_averaging_estimates_match_per_cell_irr_means(case, spec, spsn, seed):
    programme, data = case
    output = perturb_outputs(programme, data, spec, seed, spsn=spsn)
    for ids in output.exact:
        key = StatisticKey(ids)
        irrs = enumerate_irrs(programme, key, spsn=spsn)
        for optimize, aggregate in ((False, count_k_t), (True, optimize_kt2)):
            result = averaging_estimates(programme, output, ids, optimize)
            assert averaging_estimates(programme, output, ids, optimize) is result
            estimates, stats = result
            want = aggregate(irrs)
            assert (stats.t, stats.k, stats.irrs) == (want.t, want.k, want.irrs)
            for cell, got in zip(programme.cells(key), estimates.ravel().tolist()):
                target = StatisticKey(ids, cell)
                # the mean of the t IRR sums, as the sum of their k cells over t
                cells = np.concatenate([irr_cells(programme, output, irr, target) for irr in want.irrs])
                mean = float(cells.sum() / want.t)
                assert got == mean
                assert run_averaging_attack(programme, output, target, optimize).disclosed[0]["estimate"] == mean


@settings(max_examples=60, deadline=None)
@given(
    programmes_with_data(),
    st.sampled_from([Laplace(0.5), TwoTailedGeometric(0.5), CellKey(variance=2.0, bound=3), None]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_averaging_reports_read_the_estimate_cube_at_the_cell_position(case, spec, spsn, seed):
    programme, data = case
    output = perturb_outputs(programme, data, spec, seed, spsn=spsn)
    for ids, exact in output.exact.items():
        key = StatisticKey(ids)
        for optimize in (False, True):
            estimates, stats = averaging_estimates(programme, output, ids, optimize)
            for i, cell in enumerate(programme.cells(key)):
                report = run_averaging_attack(programme, output, StatisticKey(ids, cell), optimize)
                entry = report.disclosed[0]
                assert entry["cell"] == f"{key.label()}:{'/'.join(cell)}"
                # the estimate at the cell's row-major index, bit for bit
                assert type(entry["estimate"]) is float
                assert np.float64(entry["estimate"]).tobytes() == estimates.ravel()[i : i + 1].tobytes()
                assert type(entry["recovered"]) is int and entry["recovered"] == round(entry["estimate"])
                assert entry["true"] == exact[cell]
                assert (entry["t"], entry["k"]) == (stats.t, stats.k)
                assert report.mc_successes == int(entry["recovered"] == entry["true"])
                # every call builds its own entry
                again = run_averaging_attack(programme, output, StatisticKey(ids, cell), optimize)
                assert again.disclosed[0] == entry and again.disclosed[0] is not entry


SEX_AGE = parse_programme(
    {
        "breakdowns": [{"id": "SEX", "categories": ["F", "M"]}, {"id": "AGE", "categories": ["young", "old"]}],
        "tables": [{"id": "T", "breakdowns": ["SEX", "AGE"]}],
    }
)


def test_tabulate_unknown_category_is_a_programme_error():
    data = Microdata(columns=("SEX", "AGE"), records=(("F", "young"), ("X", "old")))
    message = r"'X' is not a category of breakdown 'SEX' \(at records\[1\]\)"
    for _ in range(2):  # only successful encodings are memoised, so every call raises
        with pytest.raises(ProgrammeError, match=message):
            tabulate(SEX_AGE, data, StatisticKey(frozenset({"SEX"})))
        with pytest.raises(ProgrammeError, match=message):
            perturb_outputs(SEX_AGE, data, None, 0)
    assert list(data.codes) == [("AGE", ("young", "old"))]


def test_codes_are_memoised_per_category_order():
    def programme(categories):
        return parse_programme(
            {"breakdowns": [{"id": "SEX", "categories": categories}], "tables": [{"id": "T", "breakdowns": ["SEX"]}]}
        )

    forward, backward = programme(["F", "M"]), programme(["M", "F"])
    data = Microdata(columns=("SEX",), records=(("F",), ("M",), ("M",)))
    key = StatisticKey(frozenset({"SEX"}))
    first = encode(forward, data, ["SEX"])["SEX"]
    assert list(tabulate(forward, data, key).items()) == [(("F",), 1), (("M",), 2)]
    assert list(tabulate(backward, data, key).items()) == [(("M",), 2), (("F",), 1)]
    assert encode(backward, data, ["SEX"])["SEX"].tolist() == [1, 0, 0]
    assert encode(forward, data, ["SEX"])["SEX"] is first


def test_read_then_release_encodes_each_column_once(tmp_path, monkeypatch):
    path = tmp_path / "micro.csv"
    path.write_text("SEX,AGE\nF,young\nM,old\nM,young\n", encoding="utf-8")
    encoded, fromiter = [], np.fromiter

    def counting_fromiter(iterable, dtype, count):
        encoded.append(count)
        return fromiter(iterable, dtype, count)

    monkeypatch.setattr(np, "fromiter", counting_fromiter)
    data = read_microdata(path, SEX_AGE)
    assert encoded == [3, 3]
    perturb_outputs(SEX_AGE, data, CellKey(variance=1.0, bound=2), 3)
    tabulate(SEX_AGE, data, StatisticKey(frozenset({"AGE"})))
    assert encoded == [3, 3]


# --- seeded releases against the record-by-record implementation -------------

DESK = parse_programme(resources.files("sdcnoise.data").joinpath("desk_programme.json").read_text())

SPECS = {
    "none": None,
    "cellkey": CellKey(2.0, 5),
    "laplace": Laplace(0.5),
    "geometric": TwoTailedGeometric(0.5),
    "truncated": TruncatedLaplace(0.5, 5),
}

# SHA-256 of release_digest(perturb_outputs(DESK, desk_data(), spec, 7, spsn)).
# The exact and SPSN cell-key entries were recorded with the tabulation that
# scanned the records once per statistic.  Every other entry was re-recorded
# when a release stopped seeding a fresh generator per cube and drew every
# cube from its one generator: the same law and row-major fill, one seeding
# layer less (test_independent_draws_fill_cubes_in_row_major_order).  Before
# that they were re-recorded when independent draws moved from sorted(cells)
# label order to row-major cube order, and the truncated entries when
# TruncatedLaplace moved from rejection sampling to its p-table lookup.
DIGESTS = {
    ("none", True): "6976f2badc20125ca35f08622a4a4e088cfe7801147cb4bd32ee8d39a4b32ecc",
    ("none", False): "582b2915ef0d977d031019378e8ba9d80289db42e53d5558cb9bcdc10a30e4fc",
    ("cellkey", True): "066975a74f11436f9f77136c4f385aee974fe8e0866db122fb22b4b941944795",
    ("cellkey", False): "fd6d9b2e7691ce1da323051a54241d9026f345f1e33bbc6e7c8afbfb42ab1a7d",
    ("laplace", True): "bca31dfe70e1572f3114c3a943fc5d77f07a965502ea65dcc0ddccc5138f3a71",
    ("laplace", False): "072b93a4433b506f2f307677c64cf8be26867ed7413ce1f09ae073e3a4267e23",
    ("geometric", True): "a514e9af9130bf786ce119debf356afc25f9ebbbb5863563e3e190b5aac92cd9",
    ("geometric", False): "96881069fe54c65e87328728ea00799739dee09c03bf41d703066c5b50a9b3f3",
    ("truncated", True): "ad0b5e2ca7f8fdc5abae89710efe24191501a926b42e87aa1efd6f4bd8872082",
    ("truncated", False): "7ca3d325976a18f557925c41bc9bc6bf91e77f25c8e526bc0e2cb1579db896b7",
}


def desk_data(n=300, seed=20261017):
    rng = random.Random(seed)
    columns = tuple(DESK.breakdowns)
    records = tuple(tuple(rng.choice(DESK.breakdown(b).categories) for b in columns) for _ in range(n))
    return Microdata(columns, records)


def release_digest(output):
    """SHA-256 over every released and exact cell, in dict order."""
    h = hashlib.sha256()
    for key, table in output.tables.items():
        h.update(repr((key[0], sorted(key[1]))).encode())
        for cell, value in table.items():
            h.update(repr((cell, float(value))).encode())
    for ids, table in output.exact.items():
        h.update(repr(sorted(ids)).encode())
        for cell, value in table.items():
            h.update(repr((cell, int(value))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,spsn", sorted(DIGESTS))
def test_seeded_release_matches_recorded_digest(name, spsn):
    output = perturb_outputs(DESK, desk_data(), SPECS[name], 7, spsn=spsn)
    assert release_digest(output) == DIGESTS[(name, spsn)]


# every release whose noise is an independent draw per released cell
INDEPENDENT = sorted(key for key in DIGESTS if key[0] != "none" and key != ("cellkey", True))


@pytest.mark.parametrize("name,spsn", INDEPENDENT)
def test_independent_draws_fill_cubes_in_row_major_order(name, spsn):
    """One generator per release feeds the released cubes in release order; each fills in row-major order."""
    spec, data = SPECS[name], desk_data()
    output = perturb_outputs(DESK, data, spec, 7, spsn=spsn)
    g = np.random.default_rng(7)
    for (table_id, ids), table in output.tables.items():
        cells = DESK.cells(StatisticKey(ids))
        exact = np.asarray(list(tabulate(DESK, data, StatisticKey(ids)).values()))
        exact = exact.reshape(tuple(DESK.breakdown(bid).cardinality for bid in sorted(ids)))
        want = exact + sample_noise(spec, g, exact.size).reshape(exact.shape)
        got = output.cubes[(table_id, ids)]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert list(table) == cells
        assert np.asarray(list(table.values()), dtype=float).tobytes() == want.astype(float).ravel().tobytes()


def test_release_without_spsn_reads_the_one_cell_key_ptable(monkeypatch):
    spec = CellKey(2.0, 5)
    assert spec.ptable() is spec.ptable()
    built, gen_ptable = [], noise.gen_ptable

    def counting_gen_ptable(variance, bound):
        built.append((variance, bound))
        return gen_ptable(variance, bound)

    monkeypatch.setattr(noise, "gen_ptable", counting_gen_ptable)
    output = perturb_outputs(DESK, desk_data(), spec, 7, spsn=False)
    assert built == []
    assert release_digest(output) == DIGESTS[("cellkey", False)]


# --- seed-free memos on the programme, the microdata and the release ---------


def fresh_copies(programme, data):
    """The programme parsed again from its document and the microdata rebuilt: both with empty memos."""
    document = {
        "breakdowns": [{"id": b.id, "categories": list(b.categories)} for b in programme.breakdowns.values()],
        "tables": [{"id": t.id, "breakdowns": list(t.breakdowns)} for t in programme.tables],
    }
    return parse_programme(document), Microdata(data.columns, data.records)


def release_bytes(output):
    """Everything a release holds, with each float and cube compared by its bytes."""
    cubes = [(key, cube.dtype.str, cube.shape, cube.tobytes()) for key, cube in output.cubes.items()]
    tables = [(key, [(cell, np.float64(value).tobytes()) for cell, value in table.items()])
              for key, table in output.tables.items()]
    return output.spsn, cubes, tables, [(ids, list(table.items())) for ids, table in output.exact.items()]


def attack_bytes(programme, output, ids, optimize):
    """Estimate cube, IRR stats and every cell's attack report of one statistic."""
    estimates, stats = averaging_estimates(programme, output, ids, optimize)
    reports = [
        run_averaging_attack(programme, output, StatisticKey(ids, cell), optimize).to_json()
        for cell in programme.cells(StatisticKey(ids))
    ]
    return estimates.tobytes(), stats, reports


@settings(max_examples=40, deadline=None)
@given(
    programmes_with_data(),
    st.lists(
        st.tuples(
            st.sampled_from([CellKey(variance=2.0, bound=3), Laplace(0.5)]),
            st.booleans(),
            st.integers(0, 2**32 - 1),
            st.sampled_from([(False,), (True,), (False, True), (True, False)]),
        ),
        min_size=2,
        max_size=4,
    ),
)
def test_memoised_releases_and_attacks_equal_fresh_ones(case, rounds):
    programme, data = case
    for spec, spsn, seed, attacks in rounds:
        output = perturb_outputs(programme, data, spec, seed, spsn=spsn)
        fresh_programme, fresh_data = fresh_copies(programme, data)
        assert release_bytes(output) == release_bytes(perturb_outputs(fresh_programme, fresh_data, spec, seed, spsn))
        for ids in output.exact:
            key = StatisticKey(ids)
            assert tabulate(programme, data, key) == tabulate(*fresh_copies(programme, data), key)
        for optimize in attacks:  # the second attack of a round reads the first one's IRR sums
            for ids in output.exact:
                fresh_programme, fresh_data = fresh_copies(programme, data)
                fresh = perturb_outputs(fresh_programme, fresh_data, spec, seed, spsn)
                got = attack_bytes(programme, output, ids, optimize)
                assert got == attack_bytes(fresh_programme, fresh, ids, optimize)
        assert release_bytes(output) == release_bytes(perturb_outputs(*fresh_copies(programme, data), spec, seed, spsn))


@pytest.mark.parametrize("spec,spsn", [(CellKey(2.0, 5), True), (Laplace(0.5), False)])
def test_attack_modes_share_no_memo(spec, spsn):
    """An equal release attacked optimized-first or plain-first gives the same cubes and reports."""
    results = []
    for order in ((True, False), (False, True)):
        programme, data = fresh_copies(DESK, desk_data())
        output = perturb_outputs(programme, data, spec, 5, spsn=spsn)
        results.append({optimize: [attack_bytes(programme, output, ids, optimize) for ids in output.exact]
                        for optimize in order})
    assert results[0] == results[1]


class CountingCubes(dict):
    """Noisy cubes that count their reads: each mode's IRR sums read each cube once."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("spec,spsn", [(CellKey(2.0, 5), True), (Laplace(0.5), False)])
def test_second_release_and_attack_rebuild_no_seed_free_fact(monkeypatch, spec, spsn):
    calls = {"bincount": 0, "enumerate_irrs": 0, "cells": 0, "averaging_estimates": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "bincount", counting("bincount", np.bincount))
    monkeypatch.setattr(redundancy, "enumerate_irrs", counting("enumerate_irrs", redundancy.enumerate_irrs))
    monkeypatch.setattr(TableProgramme, "cells", counting("cells", TableProgramme.cells))
    monkeypatch.setattr(
        attacks_module, "averaging_estimates", counting("averaging_estimates", attacks_module.averaging_estimates)
    )
    programme, data = fresh_copies(DESK, desk_data())
    stats = [key.breakdown_ids for key in statistic_universe(programme)]

    def attack_every_cell(output, optimize):
        labels = programme.plans["release"][-1]
        for ids in stats:
            for cell in labels[ids]:
                run_averaging_attack(programme, output, StatisticKey(ids, cell), optimize)

    def release_and_attack(seed):
        output = perturb_outputs(programme, data, spec, seed, spsn=spsn)
        output = NoisyOutput(output.spsn, output.tables, output.exact, CountingCubes(output.cubes))
        cold = calls["averaging_estimates"]
        attack_every_cell(output, False)
        # the plain mode's IRR sums read every noisy cube once
        assert output.cubes.reads == len(output.cubes)
        plain = dict(output.estimates)
        attack_every_cell(output, True)
        # the optimized mode sums its own IRRs, reading every cube once more, and leaves the plain entries be
        assert output.cubes.reads == 2 * len(output.cubes)
        assert all(output.estimates[key] is value for key, value in plain.items())
        # the first target of a mode estimates every statistic; every later target reads them back
        assert calls["averaging_estimates"] - cold == 2
        for optimize in (False, True):
            attack_every_cell(output, optimize)
        assert calls["averaging_estimates"] - cold == 2
        assert output.cubes.reads == 2 * len(output.cubes)
        assert output.estimates.keys() == {(ids, optimize) for ids in stats for optimize in (False, True)}
        return output

    first = release_and_attack(1)
    assert calls["bincount"] == len(programme.tables)  # one count cube per table
    assert calls["enumerate_irrs"] == 2 * len(stats)  # once per statistic and mode
    assert calls["cells"] == len(stats)  # one label map per statistic, shared by release and attack
    assert programme.plans.keys() == {"release", (spsn, False), (spsn, True)}
    plans = dict(programme.plans)

    def seed_free_parts():
        """The release plan's index arrays and label maps, and the table cells and exact statistics."""
        _, _, _, index, labels = programme.plans["release"]
        flats, counts, cubes, dicts = attacks_module._exact_statistics(programme, data)
        return [*index, *labels.values(), *flats, counts, *cubes.values(), *dicts.values()]

    parts = seed_free_parts()
    calls.update(dict.fromkeys(calls, 0))
    output = release_and_attack(2)
    assert calls == {"bincount": 0, "enumerate_irrs": 0, "cells": 0, "averaging_estimates": 2}
    assert programme.plans.keys() == plans.keys()
    assert all(programme.plans[key] is plan for key, plan in plans.items())
    assert all(a is b for a, b in zip(seed_free_parts(), parts, strict=True))
    fresh_programme, fresh_data = fresh_copies(programme, data)
    assert release_bytes(output) == release_bytes(perturb_outputs(fresh_programme, fresh_data, spec, 2, spsn=spsn))
    # each release holds its own exact dicts: equal, never shared, so a caller's edit stays in its release
    assert first.exact == output.exact and first.exact is not output.exact
    assert all(first.exact[ids] is not output.exact[ids] for ids in stats)
    ids = stats[-1]
    cell = next(iter(output.exact[ids]))
    truth = output.exact[ids][cell]
    output.exact[ids][cell] += 1
    assert first.exact[ids][cell] == truth
    assert perturb_outputs(programme, data, spec, 3, spsn=spsn).exact[ids][cell] == truth


def test_memoised_arrays_are_read_only():
    programme, data = fresh_copies(DESK, desk_data())
    output = perturb_outputs(programme, data, Laplace(0.5), 3, spsn=False)
    for ids in output.exact:
        for optimize in (False, True):
            averaging_estimates(programme, output, ids, optimize)
    assert programme.plans.keys() == {"release", (False, False), (False, True)}
    assert output.estimates.keys() == {(ids, optimize) for ids in output.exact for optimize in (False, True)}
    # column codes and the exact-statistics entry only: no table's count cube is memoised on its own
    assert not [key for key in data.codes if isinstance(key[0], tuple)]
    _, _, _, index, labels = programme.plans["release"]
    assert list(labels) == list(output.exact)
    for ids, label_map in labels.items():  # row-major cells, each mapped to its (position, report label)
        cells = programme.cells(StatisticKey(ids))
        assert list(label_map) == cells
        prefix = StatisticKey(ids).label() + ":"
        assert list(label_map.values()) == [(i, prefix + "/".join(cell)) for i, cell in enumerate(cells)]
    # the release plan's and both attack plans' index arrays and every estimate cube
    plans = [*index]
    for optimize in (False, True):
        _, _, _, groups = programme.plans[(False, optimize)]
        plans += [rows for _, rows in groups]
    estimates = [output.estimates[(ids, optimize)][0][0] for ids in output.exact for optimize in (False, True)]
    # the exact statistic vector and its cubes, which an exact release hands out as they are
    # and the record cells of every table, held there
    flats, counts, cubes, _ = attacks_module._exact_statistics(programme, data)
    assert len(flats) == len(programme.tables)
    exact_release = perturb_outputs(programme, data, None, 0, spsn=False)
    assert all(exact_release.cubes[key] is cubes[key[1]] for key in programme.released)
    exact = [counts, *cubes.values()]
    for array in [*flats] + plans + estimates + exact:
        assert isinstance(array, np.ndarray) and not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
