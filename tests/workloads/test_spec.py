"""The one spec grammar: every family table parses what it renders, and the
spec strings committed artefacts carry print back byte for byte.

The round-trip property draws a family from a table and a value for each
of its constructor's fields (an ``int`` field draws integers); values the
constructor's range checks refuse are discarded.  ``FUZZ_FACTOR`` scales
the examples (the nightly fuzz workflow sets it to 10).
"""

import contextlib
import inspect
import io
import math
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.workloads.arrivals import ARRIVALS, parse_arrival
from repro.workloads.faults import FAULT_LEGS, FaultPlan, parse_faults
from repro.workloads.keyed import KEY_DISTS, parse_key_dist
from repro.workloads.spec import forms, parse, render

FUZZ_FACTOR = int(os.environ.get("FUZZ_FACTOR", "1"))

TABLES = {
    "fault leg": FAULT_LEGS,
    "arrival process": ARRIVALS,
    "key distribution": KEY_DISTS,
}

#: The spec strings checked-in ``results/*`` and ``tests/golden/*`` params
#: carry, by the parser that reads them.
TRAFFIC = [
    (parse_key_dist, "uniform"),
    (parse_key_dist, "zipf:1.1"),
    (parse_arrival, "poisson:2"),
    (parse_arrival, "poisson:4"),
    (parse_arrival, "poisson:8"),
    (parse_arrival, "burst:6:0.5:10:20"),
    (parse_arrival, "burst:12:0.5:10:20"),
    (parse_faults, "withhold:1:40:30:0;partition:2:10:12"),
    (parse_faults, "withhold:1:8:20:0;partition:2:2:5"),
    (parse_faults, "none"),
]

#: Field values that ``:g`` prints exactly: small integers, hundredths, inf.
FLOATS = st.one_of(
    st.integers(0, 4).map(float),
    st.integers(0, 100_000).map(lambda n: n / 100),
    st.just(math.inf),
)


def _fields(make):
    return list(inspect.signature(make).parameters.values())


@st.composite
def members(draw, table):
    """``(name, args, value)``: a family of ``table``, the arguments drawn
    for it (a prefix of its fields) and the constructed value."""
    name = draw(st.sampled_from(sorted(table)))
    fields = _fields(table[name])
    count = draw(st.integers(0, len(fields)))
    args = [
        draw(st.integers(0, 8) if field.annotation in ("int", int) else FLOATS)
        for field in fields[:count]
    ]
    try:
        value = table[name](*args)
    except ValueError:
        assume(False)
    return name, args, value


def _spec(name, args):
    return ":".join([name, *(f"{a:g}" for a in args)])


@settings(max_examples=150 * FUZZ_FACTOR, deadline=None)
@given(data=st.data(), what=st.sampled_from(sorted(TABLES)))
def test_parse_reads_back_what_render_prints(data, what):
    table = TABLES[what]
    name, args, value = data.draw(members(table))
    # Omitted trailing fields take the constructor's defaults ...
    assert parse(table, _spec(name, args), what) == value
    # ... and the canonical form spells every field out.
    canonical = render(table, value)
    assert canonical.count(":") == len(_fields(table[name]))
    assert parse(table, canonical, what) == value
    assert render(table, parse(table, canonical, what)) == canonical


@settings(max_examples=60 * FUZZ_FACTOR, deadline=None)
@given(legs=st.lists(members(FAULT_LEGS), unique_by=lambda m: m[0], max_size=5))
def test_a_fault_plan_round_trips_through_its_spec(legs):
    fields = {"delayadv": "delay_adversary"}
    plan = FaultPlan(**{fields.get(name, name): leg for name, _, leg in legs})
    assert parse_faults(plan.spec()) == plan
    assert parse_faults(plan.spec()).spec() == plan.spec()


@pytest.mark.parametrize("parser, spec", TRAFFIC, ids=[s for _, s in TRAFFIC])
def test_committed_specs_print_back_byte_identically(parser, spec):
    assert parser(spec).spec() == spec


def test_forms_are_the_constructor_signatures():
    assert forms(KEY_DISTS) == "'uniform', 'zipf[:theta]'"
    assert forms(ARRIVALS).startswith("'poisson[:rate]', ")
    assert "'crash[:count[:start_lo[:start_hi[:width]]]]'" in forms(FAULT_LEGS)


@pytest.mark.parametrize("table", TABLES.values(), ids=list(TABLES))
def test_the_cli_help_prints_every_form(table, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # wrapping never splits a form
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(["experiment", "--help"])
    assert forms(table) in " ".join(out.getvalue().split())


@pytest.mark.parametrize(
    "parser, spec, match",
    [
        (parse_faults, "meteor:3", "expected 'crash\\[:count"),
        (parse_arrival, "hotcold", "expected 'poisson\\[:rate\\]'"),
        (parse_key_dist, "hotcold", "expected 'uniform', 'zipf\\[:theta\\]'"),
        (parse_faults, "slow:1:2:3:4", "slow leg takes count:extra:jitter"),
        (parse_key_dist, "uniform:1", "uniform distribution takes no fields"),
        (parse_faults, "crash:1:x", "invalid numeric field crash start_lo"),
        (parse_faults, "partition:inf", "partition isolated must be an integer"),
    ],
)
def test_errors_name_the_family_and_the_field(parser, spec, match):
    with pytest.raises(ValueError, match=match):
        parser(spec)
