"""The event-line schema: every writer's line parses back to its fields,
and parse, read and the detection report refuse what no writer produces."""
import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zircon import events
from zircon.analysis import detection_report

INTEGER = st.integers(min_value=-2 ** 40, max_value=2 ** 40)
# "-" marks a missing id; a text field is any run of printable characters
# that holds no field separator
TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                             blacklist_characters="|"), max_size=12)
STRATEGY = {"": INTEGER, "?": st.none() | INTEGER, "$": TEXT}


def fields_of(kind, strategy=STRATEGY):
    """One hypothesis strategy per field of `kind`, from SCHEMA's markers."""
    return st.tuples(*(strategy[name[-1] if name[-1] in "?$" else ""]
                       for name in events.SCHEMA[kind].split()))


def written(strategy=STRATEGY):
    """A line from one of the writers."""
    return st.sampled_from(sorted(events.SCHEMA)).flatmap(
        lambda kind: fields_of(kind, strategy).map(
            lambda fields: getattr(events, kind)(*fields)))


@given(st.sampled_from(sorted(events.SCHEMA)).flatmap(
    lambda kind: st.tuples(st.just(kind), fields_of(kind))))
def test_every_kind_round_trips(kind_and_fields):
    kind, fields = kind_and_fields
    write = getattr(events, kind)
    line = write(*fields)
    assert line.split("|", 1)[0] == kind
    record = events.parse(line)
    assert type(record) is getattr(events, kind.capitalize())
    assert tuple(record) == fields
    assert record._fields == tuple(n.rstrip("?$")
                                   for n in events.SCHEMA[kind].split())
    assert tuple(inspect.signature(write).parameters) == record._fields
    assert write(*record) == line


def test_missing_ids_print_as_dash():
    line = events.verdict(5, None, None, None, "frame_fail", 7)
    assert line == "verdict|5|-|-|-|frame_fail|7"
    assert events.parse(line) == events.Verdict(5, None, None, None,
                                                "frame_fail", 7)
    line = events.attack("store_probe", "store", None, 4, "caller=6", 0)
    assert line == "attack|store_probe|store|-|4|caller=6|0"
    assert events.parse(line).src is None


# -- the attack detail field ---------------------------------------------------

DETAIL_KEY = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E,
                                   blacklist_characters="|,="), min_size=1,
                     max_size=8)
DETAIL_VALUE = st.booleans() | st.none() | INTEGER | DETAIL_KEY


@given(st.dictionaries(DETAIL_KEY, DETAIL_VALUE, max_size=4))
def test_detail_round_trips(items):
    text = events.detail(**items)
    assert "|" not in text
    kept = {k: v for k, v in items.items() if v is not None and v is not False}
    assert events.parse_detail(text) == {
        k: True if v is True else str(v) for k, v in kept.items()}
    assert list(events.parse_detail(text)) == list(kept)


@pytest.mark.parametrize("items, text", [
    (dict(captured=True), "captured"),
    (dict(delay=1000, mutated=False), "delay=1000"),
    (dict(delay=30000, mutated=True), "delay=30000,mutated"),
    (dict(offset=80, n=8), "offset=80,n=8"),
    (dict(epoch=999, hop=1), "epoch=999,hop=1"),
    (dict(caller=666, result="authorization_error"),
     "caller=666,result=authorization_error"),
    (dict(), ""),
])
def test_detail_field_format(items, text):
    assert events.detail(**items) == text
    assert events.parse_detail(text) == {
        k: True if v is True else str(v) for k, v in items.items()
        if v is not False}


@pytest.mark.parametrize("line", [
    "bogus|1|2",                         # unknown kind
    "",                                  # no kind at all
    "rotate|1",                          # missing field
    "rotate|1|2|3",                      # extra field
    "store|1|2",                         # truncated
    "emit|1|x|3|4|5",                    # non-integer
    "delete|1|2|3|4.5",                  # non-integer
    "emit|1|-|3|4|5",                    # "-" only stands in for an id
    "verdict|9|1|1|1|accepted|-",        # ... not for the time
])
def test_parse_rejects(line):
    with pytest.raises(ValueError, match="malformed log line"):
        events.parse(line)


def rejected_lines():
    """Per kind, from SCHEMA: a line one field short, a line one field long,
    a non-integer in each integer or id field, and "-" in each plain
    integer field."""
    for kind, spec in sorted(events.SCHEMA.items()):
        names = spec.split()
        good = ["x" if name.endswith("$") else "1" for name in names]
        events.parse("|".join([kind] + good))  # each line is one edit off it
        yield "|".join([kind] + good[:-1])
        yield "|".join([kind] + good + ["1"])
        for i, name in enumerate(names):
            if not name.endswith("$"):
                bad = ("x",) if name.endswith("?") else ("x", "-")
                for value in bad:
                    yield "|".join([kind] + good[:i] + [value] + good[i + 1:])


# the kinds detection_report reads; it passes over deliver and rotate lines
# unparsed, as read() passes over the kinds it is not asked for
REPORTED = ("verdict", "store", "delete", "emit", "attack")


@pytest.mark.parametrize("line", list(rejected_lines()))
def test_parse_read_and_report_reject_alike(line):
    with pytest.raises(ValueError, match="malformed log line") as parsed:
        events.parse(line)
    with pytest.raises(ValueError) as read:
        list(events.read([line]))
    assert str(read.value) == str(parsed.value)
    if line.split("|", 1)[0] in REPORTED:
        with pytest.raises(ValueError) as reported:
            detection_report([line])
        assert str(reported.value) == str(parsed.value)
    else:
        assert list(events.read([line], REPORTED)) == []
        detection_report([line])


PAD = st.sampled_from(["", " ", "\t", " \t "])


def logged(lines):
    """Writer lines, mixed with blank and padded lines and lines that end in
    a newline."""
    return st.lists(st.one_of(
        lines, PAD, st.tuples(PAD, lines, PAD).map("".join),
        lines.map(lambda line: line + "\n")), max_size=12)


@given(logged(written()), st.sets(st.sampled_from(sorted(events.SCHEMA))))
def test_read_matches_parse_line_by_line(lines, kinds):
    expected = []
    for idx, line in enumerate(lines):
        line = line.strip()
        if line and line.split("|", 1)[0] in kinds:
            expected.append((idx, events.parse(line)))
    got = list(events.read(lines, kinds))
    assert got == expected
    # records of different kinds may hold equal fields
    assert [type(rec) for _, rec in got] == [type(rec) for _, rec in expected]


# small ids and the report's own words, so that attacks, verdicts, stores
# and emits fall on the same packets
SMALL = {"": st.integers(0, 3), "?": st.none() | st.integers(0, 3),
         "$": st.sampled_from(["accepted", "frame_fail", "replay", "drop",
                               "eavesdrop", "store_probe", "delay=1000",
                               "result=retrieved"])}


@given(logged(written(SMALL)))
def test_detection_report_reads_text_and_lines_alike(lines):
    text = "\n".join(lines)
    report = detection_report([line.strip() for line in lines])
    assert detection_report(text) == report
    assert detection_report(text.splitlines()) == report
    assert detection_report(text.splitlines(keepends=True)) == report


def test_journal_keeps_store_and_delete_lines_in_order():
    log = [events.emit(1, 1, 1, 1, 0),
           events.store(1, 1, 1, "aa", 1, 0),
           events.deliver(2, 1, 1, 1, 300),
           events.delete(1, 1, 1, 300),
           events.rotate(1, 300)]
    assert events.journal(log) == [log[1], log[3]]


def test_read_yields_indexed_records_of_the_asked_kinds():
    lines = [events.emit(1, 1, 1, 1, 0),
             "",
             events.deliver(2, 1, 1, 1, 300),
             "  " + events.delete(1, 1, 1, 300) + "\n",
             events.rotate(1, 300)]
    assert list(events.read(lines)) == [
        (0, events.Emit(1, 1, 1, 1, 0)),
        (2, events.Deliver(2, 1, 1, 1, 300)),
        (3, events.Delete(1, 1, 1, 300)),
        (4, events.Rotate(1, 300)),
    ]
    assert list(events.read(lines, ("delete",))) == [
        (3, events.Delete(1, 1, 1, 300))]


def test_read_passes_over_other_kinds_but_not_unknown_ones():
    # a line of a kind nobody asked for is not parsed, so not checked
    assert list(events.read(["deliver|x", "rotate|1|2"], ("rotate",))) \
        == [(1, events.Rotate(1, 2))]
    with pytest.raises(ValueError, match="unknown event kind 'bogus'"):
        list(events.read(["rotate|1|2", "bogus|1"], ("rotate",)))
