"""Every library error that only a malformed call reaches, called in process: its class and exact message.

Each parameter rule's message also occurs once in the package source: the rule has one owner.
"""

from pathlib import Path

import pytest

from sdcnoise import accounting, attacks, noise, redundancy, tables, utility
from sdcnoise.errors import DomainError, ProgrammeError

_BREAKDOWN = tables.Breakdown("SEX", ("F", "M"))
_TABLE = tables.TableSpec("T1", ("SEX",))

# id: (call, exception class, message)
RAISE_SITES = {
    "breakdown-empty-id": (lambda: tables.Breakdown("", ("F",)), ProgrammeError, "breakdown id must be non-empty"),
    "breakdown-no-categories": (lambda: tables.Breakdown("SEX", ()), ProgrammeError, "breakdown 'SEX' has no categories"),
    "breakdown-duplicate-category": (lambda: tables.Breakdown("SEX", ("F", "F")), ProgrammeError,
                                     "duplicate category in breakdown 'SEX'"),
    "table-no-breakdowns": (lambda: tables.TableSpec("T1", ()), ProgrammeError, "table 'T1' has no breakdowns"),
    "table-duplicate-breakdown": (lambda: tables.TableSpec("T1", ("SEX", "SEX")), ProgrammeError,
                                  "duplicate breakdown in table 'T1'"),
    "programme-duplicate-breakdown": (lambda: tables.TableProgramme([_BREAKDOWN, _BREAKDOWN], []), ProgrammeError,
                                      "duplicate breakdown id 'SEX'"),
    "programme-duplicate-table": (lambda: tables.TableProgramme([_BREAKDOWN], [_TABLE, _TABLE]), ProgrammeError,
                                  "duplicate table id 'T1' (at tables[1])"),
    "parse-invalid-json": (lambda: tables.parse_programme("{"), ProgrammeError,
                           "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "parse-not-object": (lambda: tables.parse_programme("[]"), ProgrammeError,
                         "programme document must be a JSON object"),
    "parse-missing-key": (lambda: tables.parse_programme({"breakdowns": []}), ProgrammeError,
                          "missing top-level key 'tables'"),
    "parse-key-not-list": (lambda: tables.parse_programme({"breakdowns": {}, "tables": []}), ProgrammeError,
                           "top-level key 'breakdowns' must be a list"),
    "parse-breakdown-fields": (lambda: tables.parse_programme({"breakdowns": [{"id": "SEX"}], "tables": []}),
                               ProgrammeError, "breakdown needs 'id' and 'categories' (at breakdowns[0])"),
    "parse-categories-not-strings": (
        lambda: tables.parse_programme({"breakdowns": [{"id": "SEX", "categories": [1]}], "tables": []}),
        ProgrammeError, "'categories' must be a list of strings (at breakdowns[0])",
    ),
    "parse-table-fields": (lambda: tables.parse_programme({"breakdowns": [], "tables": [{"id": "T1"}]}),
                           ProgrammeError, "table needs 'id' and 'breakdowns' (at tables[0])"),
    "parse-breakdowns-not-ids": (
        lambda: tables.parse_programme({"breakdowns": [], "tables": [{"id": "T1", "breakdowns": "SEX"}]}),
        ProgrammeError, "'breakdowns' must be a list of ids (at tables[0])",
    ),
    "column-index-unknown": (lambda: tables.Microdata(("SEX",), (("F",),)).column_index("AGE"), ProgrammeError,
                             "microdata has no column 'AGE'"),
    "neighbor-unknown-op": (lambda: tables.neighbor(tables.Microdata(("SEX",), ()), "swap", ("F",)), ProgrammeError,
                            "unknown neighbor op 'swap', expected 'add' or 'remove'"),
    "ptable-length": (lambda: noise.PTable(bound=1, probabilities=[0.5, 0.5]), DomainError,
                      "expected 3 probabilities, got (2,)"),
    "sample-noise-count": (lambda: noise.sample_noise(noise.Laplace(1.0), 1, 0), DomainError,
                           "count must be positive, got 0"),
    "sample-noise-unknown-spec": (lambda: noise.sample_noise("laplace", 1, 3), DomainError,
                                  "unknown noise spec 'laplace'"),
    "irr-stats-t-zero": (lambda: redundancy.IRRStats(t=0, k=0, irrs=()), DomainError, "t must be positive"),
    "optimize-empty": (lambda: redundancy.optimize_kt2([]), DomainError, "cannot optimize an empty IRR list"),
    "halving-index": (lambda: accounting.halving_schedule(1.0, 0), DomainError, "call index must be >= 1, got 0"),
    "eps-alpha-n-size": (lambda: accounting.eps_alpha_n(1, 0.5), DomainError, "database size must be >= 2, got 1"),
    "noise-scale-t": (lambda: accounting.noise_scale_for_global(1.0, 0), DomainError,
                      "output complexity must be positive, got 0"),
    "tuples-needed-p1": (lambda: attacks.tuples_needed(1.5, 0.5), DomainError, "p1 must lie in [0,1], got 1.5"),
    "margin-short-tuple": (lambda: attacks.margin_exploit_scan([[3, 4, 7], [5]], 2), DomainError,
                           "tuple 1 needs at least one internal count and a total"),
    "histogram-edges": (lambda: utility.CountHistogram((0, 1), (1, 2)), DomainError, "need one more edge than bins"),
    "histogram-ascending": (lambda: utility.CountHistogram((0, 2, 1), (1, 2)), DomainError,
                            "bin edges must be strictly ascending"),
    "histogram-negative": (lambda: utility.CountHistogram((0, 1), (-1,)), DomainError,
                           "bin counts must be nonnegative"),
    "tail-prob-threshold": (lambda: utility.tail_prob(1.0, -1), DomainError, "threshold must be nonnegative, got -1"),
    "distortion-estimate-re": (
        lambda: utility.binned_distortion_estimate(utility.CountHistogram((0, 1), (1,)), 1.0, 0), DomainError,
        "relative error threshold must be positive, got 0",
    ),
    "dp-utility-bound": (lambda: utility.dp_utility_eps(0, 68, 0.5), DomainError,
                         "bound and output count must be positive"),
    "dp-utility-alpha": (lambda: utility.dp_utility_eps(20, 68, 1.0), DomainError, "alpha must lie in (0,1), got 1.0"),
    "check-alpha-nan": (lambda: attacks.check_alpha(float("nan")), DomainError, "alpha must lie in (0,1), got nan"),
    "averaging-success-k": (lambda: attacks.averaging_success(2.0, 0, 5), DomainError,
                            "V must be nonnegative and k, t positive"),
    "check-xi-nan": (lambda: attacks.check_xi(float("nan")), DomainError, "xi must be positive, got nan"),
    "check-delta-epsilon-nan": (lambda: accounting.check_delta_epsilon(float("nan")), DomainError,
                                "epsilon must be nonnegative and finite, got nan"),
}


@pytest.mark.parametrize("call, error, message", RAISE_SITES.values(), ids=RAISE_SITES.keys())
def test_library_raise_site(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


# The message of each parameter rule that more than one caller needs.
RULE_MESSAGES = [
    "relative error threshold must be positive",
    "alpha must lie in (0,1)",
    "bound must be a positive integer no larger than 10**6",
    "epsilon must be positive and finite",
    "need k >= t >= 1 and positive trials",
    "xi must be positive",
    "epsilon must be nonnegative and finite",
    "negative count in area",
    "it takes an object of the keys",
    "cannot write",
    "cannot read {path}",
]


@pytest.mark.parametrize("message", RULE_MESSAGES)
def test_each_parameter_rule_has_one_owner(message):
    sources = [path.read_text(encoding="utf-8") for path in Path(utility.__file__).parent.rglob("*.py")]
    assert sum(text.count(message) for text in sources) == 1
