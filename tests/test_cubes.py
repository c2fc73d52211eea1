"""Array-cube tabulation against per-record references.

The release pipeline counts each table once as a numpy cube and sums axes
for its marginals; record keys are summed the same way as uint64 cubes.
These properties pin both to the record-by-record definitions, and pin
seeded releases to digests taken from the record-by-record implementation
the cubes replaced.  The averaging attack's per-statistic estimate cubes are
pinned bit for bit to the mean of per-cell IRR sums.
"""

import hashlib
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcnoise import noise
from sdcnoise.errors import ProgrammeError
from sdcnoise.noise import (
    CellKey,
    Laplace,
    RecordKey,
    TruncatedLaplace,
    TwoTailedGeometric,
    cell_key,
    cell_key_noise,
)
from sdcnoise.attacks import averaging_estimates, perturb_outputs, run_averaging_attack
from sdcnoise.redundancy import count_k_t, enumerate_irrs, optimize_kt2
from sdcnoise.tables import (
    Breakdown,
    Microdata,
    StatisticKey,
    TableProgramme,
    TableSpec,
    cube_index,
    encode,
    enumerate_subtables,
    marginal,
    parse_programme,
    read_microdata,
    tabulate,
)


@st.composite
def programmes_with_data(draw, max_records=40):
    """A random programme of 1-4 breakdowns and 1-3 tables, with microdata."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    breakdowns = [
        Breakdown(id=f"B{i}", categories=tuple(f"c{j}" for j in range(size)))
        for i, size in enumerate(sizes)
    ]
    ids = [b.id for b in breakdowns]
    tables = [
        TableSpec(id=f"T{t}", breakdowns=tuple(draw(st.permutations(ids))[: draw(st.integers(1, len(ids)))]))
        for t in range(draw(st.integers(1, 3)))
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


def key_cube(programme, data, ids, record_keys):
    """Wrapped uint64 sums of the record keys over the cube of ``ids``."""
    flat, shape = cube_index(programme, encode(programme, data, ids), ids)
    keys = np.zeros(int(np.prod(shape)), dtype=np.uint64)
    np.add.at(keys, flat, record_keys)
    return keys.reshape(shape)


@settings(max_examples=60, deadline=None)
@given(programmes_with_data())
def test_cube_marginals_match_per_record_tabulation(case):
    programme, data = case
    codes = encode(programme, data, programme.breakdowns)
    for table in programme.tables:
        ids = tuple(sorted(table.breakdowns))
        flat, shape = cube_index(programme, codes, ids)
        cube = np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)
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


def irr_value(programme, output, irr, target):
    """One IRR of one cell: index the cell in the source cube and sum the rest."""
    stat_ids = target.breakdown_ids | irr.summed_out
    cell = {bid: programme.category_index[bid][value] for bid, value in zip(target.sorted_ids, target.cell)}
    index = tuple(cell.get(bid, slice(None)) for bid in sorted(stat_ids))
    return float(output.cubes[(irr.table_id, stat_ids)][index].sum())


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
                mean = float(np.mean([irr_value(programme, output, irr, target) for irr in want.irrs]))
                assert got == mean
                assert run_averaging_attack(programme, output, target, optimize).disclosed[0]["estimate"] == mean


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

# SHA-256 of release_digest(perturb_outputs(DESK, desk_data(), spec, 7, spsn)),
# recorded with the tabulation that scanned the records once per statistic
DIGESTS = {
    ("none", True): "6976f2badc20125ca35f08622a4a4e088cfe7801147cb4bd32ee8d39a4b32ecc",
    ("none", False): "582b2915ef0d977d031019378e8ba9d80289db42e53d5558cb9bcdc10a30e4fc",
    ("cellkey", True): "066975a74f11436f9f77136c4f385aee974fe8e0866db122fb22b4b941944795",
    ("cellkey", False): "2ab1246bbaa710f77d5aaffb227dff5bbfc9617566de85f99f3fdf31c8103ad6",
    ("laplace", True): "93601ab728811638c8a884738bd5d5c56ef026debdae94cdda405cd7d08b68fa",
    ("laplace", False): "967e551a0624719f35e76740b1f171cb1602a61d97fd0c42284c1a994abf87ad",
    ("geometric", True): "7c5dcdc02d914104f96900e6e9b63555942164659a87c83fc43eebe25af57ad0",
    ("geometric", False): "af472cf8bd8605f2c7c6669a440f2dda9a8085d3f9c9a4799f4214dab7680191",
    ("truncated", True): "5feb14bb1ad5062fec90ccf904cca6553704bc4333a723e787ee291102290a16",
    ("truncated", False): "57ef87a50386c3103c434afaf2db4a4cd12c74210d039d35aa058450ddefb3cb",
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
