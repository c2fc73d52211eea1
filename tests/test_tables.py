import itertools
import random

import pytest

from sdcnoise.errors import ProgrammeError
from sdcnoise.tables import (
    Breakdown,
    Microdata,
    StatisticKey,
    TableProgramme,
    TableSpec,
    enumerate_subtables,
    neighbor,
    parse_programme,
    read_microdata,
    tabulate,
    validate_microdata,
)

SEX_AGE_DOC = {
    "breakdowns": [
        {"id": "SEX", "categories": ["F", "M"]},
        {"id": "AGE", "categories": ["young", "old"]},
    ],
    "tables": [{"id": "T1", "breakdowns": ["SEX", "AGE"]}],
}


@pytest.fixture
def sex_age():
    return parse_programme(SEX_AGE_DOC)


def _random_programme(rng, max_tables=5, max_dims=4):
    ids = ["B%d" % i for i in range(6)]
    breakdowns = [
        Breakdown(id=bid, categories=tuple("c%d" % j for j in range(rng.randint(1, 4))))
        for bid in ids
    ]
    tables = []
    for ti in range(rng.randint(1, max_tables)):
        dims = rng.sample(ids, rng.randint(1, max_dims))
        tables.append(TableSpec(id="T%d" % ti, breakdowns=tuple(dims)))
    return TableProgramme(breakdowns, tables)


def _random_microdata(rng, programme, n):
    columns = tuple(sorted(programme.breakdowns))
    records = tuple(
        tuple(rng.choice(programme.breakdown(bid).categories) for bid in columns)
        for _ in range(n)
    )
    return Microdata(columns=columns, records=records)


def test_parse_minimal(sex_age):
    assert len(sex_age.breakdowns) == 2
    assert len(sex_age.tables) == 1
    assert sex_age.breakdown("SEX").cardinality == 2


def test_parse_unknown_reference():
    doc = {
        "breakdowns": [{"id": "SEX", "categories": ["F", "M"]}],
        "tables": [{"id": "T", "breakdowns": ["SEX", "YAE.H"]}],
    }
    with pytest.raises(ProgrammeError, match="YAE.H"):
        parse_programme(doc)


def test_parse_reports_location():
    doc = {
        "breakdowns": [{"id": "SEX", "categories": ["F", "M"]}],
        "tables": [{"id": "T", "breakdowns": ["SEX", "NOPE"]}],
    }
    with pytest.raises(ProgrammeError, match=r"tables\[0\].breakdowns\[1\]"):
        parse_programme(doc)


def test_parse_duplicate_breakdown_id():
    doc = {
        "breakdowns": [
            {"id": "SEX", "categories": ["F", "M"]},
            {"id": "SEX", "categories": ["F", "M"]},
        ],
        "tables": [],
    }
    with pytest.raises(ProgrammeError, match="duplicate"):
        parse_programme(doc)


def test_parse_four_dimensional_table():
    doc = {
        "breakdowns": [
            {"id": "GEO.M", "categories": ["r1", "r2"]},
            {"id": "SEX", "categories": ["F", "M"]},
            {"id": "AGE.M", "categories": ["a0", "a1"]},
            {"id": "YAE.H", "categories": ["y0", "y1"]},
        ],
        "tables": [
            {"id": "T9.2", "breakdowns": ["GEO.M", "SEX", "AGE.M", "YAE.H"]}
        ],
    }
    prog = parse_programme(doc)
    assert len(prog.tables[0].breakdowns) == 4
    assert len(enumerate_subtables(prog.tables[0])) == 16


def test_parse_bad_json():
    with pytest.raises(ProgrammeError, match="invalid JSON"):
        parse_programme("{not json")


def test_subtable_power_set_cardinality():
    for m in range(1, 7):
        table = TableSpec(id="T", breakdowns=tuple("B%d" % i for i in range(m)))
        keys = enumerate_subtables(table)
        assert len(keys) == 2**m
        assert StatisticKey(frozenset()) in keys
        assert StatisticKey(table.breakdown_set) in keys


def test_subtables_of_pair():
    table = TableSpec(id="T", breakdowns=("SEX", "AGE"))
    got = {k.breakdown_ids for k in enumerate_subtables(table)}
    assert got == {
        frozenset(),
        frozenset({"SEX"}),
        frozenset({"AGE"}),
        frozenset({"SEX", "AGE"}),
    }


def test_tabulate_empty_microdata(sex_age):
    data = Microdata(columns=("SEX", "AGE"), records=())
    counts = tabulate(sex_age, data, StatisticKey(frozenset({"SEX", "AGE"})))
    assert set(counts.values()) == {0}
    assert len(counts) == 4
    assert tabulate(sex_age, data, StatisticKey(frozenset())) == {(): 0}


def test_tabulate_direct_count(sex_age):
    data = Microdata(
        columns=("SEX", "AGE"),
        records=(("F", "young"), ("F", "old"), ("M", "old")),
    )
    assert tabulate(sex_age, data, StatisticKey(frozenset({"SEX"}))) == {
        ("F",): 2,
        ("M",): 1,
    }


def test_tabulate_marginal_sum_oracle(sex_age):
    data = Microdata(
        columns=("SEX", "AGE"),
        records=(("F", "young"), ("F", "old"), ("M", "old")),
    )
    full = tabulate(sex_age, data, StatisticKey(frozenset({"SEX", "AGE"})))
    by_sex = {}
    # full cells align with sorted ids, i.e. (AGE value, SEX value)
    for (_age, sex), count in full.items():
        by_sex[(sex,)] = by_sex.get((sex,), 0) + count
    assert by_sex == tabulate(sex_age, data, StatisticKey(frozenset({"SEX"})))


def test_tabulate_cell_restriction(sex_age):
    data = Microdata(columns=("SEX", "AGE"), records=(("F", "young"),))
    key = StatisticKey(frozenset({"SEX", "AGE"}), cell=("young", "F"))
    assert tabulate(sex_age, data, key) == {("young", "F"): 1}


def test_cells_order_is_lexicographic(sex_age):
    cells = sex_age.cells(StatisticKey(frozenset({"SEX", "AGE"})))
    # AGE sorts before SEX; categories keep declaration order
    assert cells == [
        ("young", "F"),
        ("young", "M"),
        ("old", "F"),
        ("old", "M"),
    ]


def test_marginal_consistency_randomized():
    rng = random.Random(1234)
    for _ in range(20):
        prog = _random_programme(rng)
        data = _random_microdata(rng, prog, rng.randint(0, 200))
        for table in prog.tables:
            full_key = StatisticKey(table.breakdown_set)
            full = tabulate(prog, data, full_key)
            for sub in enumerate_subtables(table):
                direct = tabulate(prog, data, sub)
                keep = [full_key.sorted_ids.index(b) for b in sub.sorted_ids]
                summed = {cell: 0 for cell in direct}
                for cell, count in full.items():
                    summed[tuple(cell[i] for i in keep)] += count
                assert summed == direct


def test_microdata_keeps_its_own_records(sex_age):
    columns, records = ["SEX", "AGE"], [["F", "young"], ["M", "old"]]
    data = Microdata(columns=columns, records=records)
    key = StatisticKey(frozenset({"SEX"}))
    assert tabulate(sex_age, data, key) == {("F",): 1, ("M",): 1}
    records.append(["F", "old"])
    records[1][0] = "F"
    columns.reverse()
    assert data.columns == ("SEX", "AGE")
    assert data.records == (("F", "young"), ("M", "old"))
    assert tabulate(sex_age, data, key) == {("F",): 1, ("M",): 1}


def test_statistic_key_sorts_its_ids_once():
    key = StatisticKey(frozenset({"SEX", "AGE"}), ("young", "F"))
    assert key.sorted_ids == ("AGE", "SEX") and key.sorted_ids is key.sorted_ids
    twin = StatisticKey(frozenset({"AGE", "SEX"}), ("young", "F"))
    assert key == twin and hash(key) == hash(twin) and key.label() == twin.label() == "AGE*SEX"


def test_neighbor_add_remove():
    data = Microdata(columns=("SEX",), records=())
    grown = neighbor(data, "add", ("F",))
    assert grown.n == 1 and data.n == 0
    back = neighbor(grown, "remove", ("F",))
    assert back.n == 0


def test_neighbor_remove_absent():
    data = Microdata(columns=("SEX",), records=())
    with pytest.raises(ProgrammeError, match="not present"):
        neighbor(data, "remove", ("F",))


def test_neighbor_round_trip_oracle(sex_age):
    rng = random.Random(9)
    data = _random_microdata(rng, sex_age, 50)
    record = ("M", "young")
    back = neighbor(neighbor(data, "add", record), "remove", record)
    for table in sex_age.tables:
        for key in enumerate_subtables(table):
            assert tabulate(sex_age, back, key) == tabulate(sex_age, data, key)


def test_neighbor_changes_exactly_one_cell(sex_age):
    rng = random.Random(5)
    data = _random_microdata(rng, sex_age, 30)
    key = StatisticKey(frozenset({"SEX", "AGE"}))
    before = tabulate(sex_age, data, key)
    # randomized microdata columns are the sorted ids (AGE, SEX), as are cells
    for record in itertools.product(("young", "old"), ("F", "M")):
        after = tabulate(sex_age, neighbor(data, "add", record), key)
        diffs = {c: after[c] - before[c] for c in before if after[c] != before[c]}
        assert diffs == {record: 1}


def test_read_microdata_roundtrip(tmp_path, sex_age):
    path = tmp_path / "micro.csv"
    path.write_text("SEX,AGE\nF,young\nM,old\n", encoding="utf-8")
    data = read_microdata(path, sex_age)
    assert data.n == 2
    assert data.records[0] == ("F", "young")


def test_validate_microdata_bad_value(sex_age):
    data = Microdata(columns=("SEX", "AGE"), records=(("X", "young"),))
    with pytest.raises(ProgrammeError, match=r"records\[0\]"):
        validate_microdata(sex_age, data)


def test_validate_microdata_names_the_record(sex_age):
    records = (("F", "young"), ("M", "old"), ("M", "middle"))
    with pytest.raises(ProgrammeError, match=r"'middle' is not a category of breakdown 'AGE' \(at records\[2\]\)"):
        validate_microdata(sex_age, Microdata(columns=("SEX", "AGE"), records=records))
    with pytest.raises(ProgrammeError, match="do not match catalog"):
        validate_microdata(sex_age, Microdata(columns=("SEX", "SEX"), records=()))


@pytest.mark.parametrize("record", [("F",), ("F", "young", "x")])
def test_ragged_record_is_rejected(record):
    with pytest.raises(ProgrammeError, match=r"records\[1\]"):
        Microdata(columns=("SEX", "AGE"), records=(("M", "old"), record))
    with pytest.raises(ProgrammeError, match=r"records\[1\]"):
        neighbor(Microdata(columns=("SEX", "AGE"), records=(("M", "old"),)), "add", record)


def test_read_microdata_rejects_ragged_and_unreadable_files(tmp_path, sex_age):
    path = tmp_path / "micro.csv"
    path.write_text("SEX,AGE\nF,young\nM\n", encoding="utf-8")
    with pytest.raises(ProgrammeError, match=r"1 values for 2 columns \(at records\[1\]\)"):
        read_microdata(path, sex_age)
    with pytest.raises(ProgrammeError, match="cannot read microdata file"):
        read_microdata(tmp_path / "absent.csv", sex_age)
    path.write_bytes(b"SEX,AGE\n\xff,young\n")
    with pytest.raises(ProgrammeError, match="cannot read microdata file"):
        read_microdata(path, sex_age)
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(ProgrammeError, match="empty"):
        read_microdata(path, sex_age)


def test_statistic_key_label():
    assert StatisticKey(frozenset()).label() == "total"
    assert StatisticKey(frozenset({"SEX", "AGE"})).label() == "AGE*SEX"


def test_statistic_key_cell_length_mismatch():
    with pytest.raises(ProgrammeError):
        StatisticKey(frozenset({"SEX"}), cell=("F", "young"))
