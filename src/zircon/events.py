"""The event-line schema: one `|`-separated record per line.

A run's events.log is the record of the protocol: packet emissions and
deliveries, per-hop verdicts, attacks, provenance-store writes and deletes,
and key rotations.  SCHEMA below is the single definition of every kind's
fields; parse() turns any line back into a record typed from it.  The
writers are one plain f-string function per kind, so writing a line builds
no object; a round-trip test holds each writer to SCHEMA.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, Iterator, List, Optional, Union

# Field order per kind.  A plain name is an integer, "name?" an integer that
# prints as "-" when missing, and "name$" free text.
SCHEMA = {
    "emit": "node src seq hop time",
    "deliver": "node src seq hop time",
    "verdict": "node src? seq? hop? outcome$ time",
    "attack": "kind$ where$ src? seq? detail$ time",
    "store": "src seq hop cipher_hex$ by time",
    "delete": "src seq count time",
    "rotate": "epoch time",
}


def _record(kind: str, spec: str):
    """The record type of one kind, its field count, and the positions of
    its integer and "-"-or-integer fields."""
    names = spec.split()
    record = namedtuple(kind.capitalize(), [n.rstrip("?$") for n in names])
    ints = tuple(i for i, n in enumerate(names) if n[-1] not in "?$")
    ids = tuple(i for i, n in enumerate(names) if n[-1] == "?")
    return record, len(names), ints, ids


_RECORDS = {kind: _record(kind, spec) for kind, spec in SCHEMA.items()}

Emit = _RECORDS["emit"][0]
Deliver = _RECORDS["deliver"][0]
Verdict = _RECORDS["verdict"][0]
Attack = _RECORDS["attack"][0]
Store = _RECORDS["store"][0]
Delete = _RECORDS["delete"][0]
Rotate = _RECORDS["rotate"][0]


def parse(line: str):
    """One line to its kind's record; ValueError on an unknown kind, a wrong
    field count, or a field that is not an integer where one is due."""
    fields = line.split("|")
    try:
        record, count, ints, ids = _RECORDS[fields[0]]
    except KeyError:
        raise ValueError(f"malformed log line {line!r}: unknown event kind "
                         f"{fields[0]!r}") from None
    del fields[0]
    if len(fields) != count:
        raise ValueError(f"malformed log line {line!r}: {count} fields "
                         f"expected, got {len(fields)}")
    # converted in place: a call per field would double the parse cost
    try:
        for i in ints:
            fields[i] = int(fields[i])
        for i in ids:
            fields[i] = None if fields[i] == "-" else int(fields[i])
    except ValueError:
        raise ValueError(f"malformed log line {line!r}: not an integer "
                         f"where one is due") from None
    return tuple.__new__(record, fields)


def read(lines: Iterable[str], kinds=SCHEMA) -> Iterator[tuple]:
    """(line index, record) for each line of one of `kinds`, in order.
    Blank lines, and lines of the other known kinds, are passed over
    unparsed; a line of an unknown kind raises like parse()."""
    for idx, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        kind = line.split("|", 1)[0]
        if kind in kinds or kind not in SCHEMA:
            yield idx, parse(line)


# -- writers, one per kind, in SCHEMA's field order -------------------------

def emit(node: int, src: int, seq: int, hop: int, time: int) -> str:
    return f"emit|{node}|{src}|{seq}|{hop}|{time}"


def deliver(node: int, src: int, seq: int, hop: int, time: int) -> str:
    return f"deliver|{node}|{src}|{seq}|{hop}|{time}"


def verdict(node: int, src: Optional[int], seq: Optional[int],
            hop: Optional[int], outcome: str, time: int) -> str:
    return (f"verdict|{node}|{'-' if src is None else src}|"
            f"{'-' if seq is None else seq}|{'-' if hop is None else hop}|"
            f"{outcome}|{time}")


def attack(kind: str, where: str, src: Optional[int], seq: Optional[int],
           detail: str, time: int) -> str:
    return (f"attack|{kind}|{where}|{'-' if src is None else src}|"
            f"{'-' if seq is None else seq}|{detail}|{time}")


def store(src: int, seq: int, hop: int, cipher_hex: str, by: int,
          time: int) -> str:
    return f"store|{src}|{seq}|{hop}|{cipher_hex}|{by}|{time}"


def delete(src: int, seq: int, count: int, time: int) -> str:
    return f"delete|{src}|{seq}|{count}|{time}"


def rotate(epoch: int, time: int) -> str:
    return f"rotate|{epoch}|{time}"


# -- the attack line's detail field -----------------------------------------
# Comma-separated items, each `key=value` or a bare flag: `delay=1000,mutated`,
# `epoch=0,hop=1`, `caller=666,result=retrieved`, `captured`.  Keys and
# values hold no `,`, `=` or `|`.

def detail(**items) -> str:
    """The detail field of `items`, in argument order: True writes a bare
    flag, False and None write nothing, any other value `key=value`."""
    return ",".join(key if value is True else f"{key}={value}"
                    for key, value in items.items()
                    if value is not None and value is not False)


def parse_detail(text: str) -> Dict[str, Union[str, bool]]:
    """A detail field back to its items: value text, or True for a flag."""
    items: Dict[str, Union[str, bool]] = {}
    for item in text.split(","):
        if item:
            key, sep, value = item.partition("=")
            items[key] = value if sep else True
    return items


def journal(log: Iterable[str]) -> List[str]:
    """The provenance journal: the store and delete lines of a log, in order."""
    return [line for line in log if line.startswith(("store|", "delete|"))]
