"""The event-line schema: one `|`-separated record per line.

A run's events.log is the record of the protocol: packet emissions and
deliveries, per-hop verdicts, attacks, provenance-store writes and deletes,
and key rotations.  SCHEMA below is the single definition of every kind's
fields, and each kind's record type is built from it.  Each kind has one
writer, a plain f-string function, so writing a line builds no object, and
beside it one reader (READERS) that converts the split line's fields by
name; parse() and read() go through the readers.  A round-trip test holds
each writer and reader to SCHEMA.
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


Emit, Deliver, Verdict, Attack, Store, Delete, Rotate = (
    namedtuple(kind.capitalize(), [n.rstrip("?$") for n in spec.split()])
    for kind, spec in SCHEMA.items())


def parse(line: str):
    """One line to its kind's record; ValueError on an unknown kind, a wrong
    field count, or a field that is not an integer where one is due."""
    fields = line.split("|")
    try:
        return READERS[fields[0]](fields)
    except KeyError:
        raise ValueError(f"malformed log line {line!r}: unknown event kind "
                         f"{fields[0]!r}") from None
    except ValueError:
        count = len(SCHEMA[fields[0]].split())
        if len(fields) - 1 != count:
            raise ValueError(f"malformed log line {line!r}: {count} fields "
                             f"expected, got {len(fields) - 1}") from None
        raise ValueError(f"malformed log line {line!r}: not an integer "
                         f"where one is due") from None


def read(lines: Iterable[str], kinds=SCHEMA) -> Iterator[tuple]:
    """(line index, record) for each line of one of `kinds`, in order.
    Blank lines, and lines of the other known kinds, are passed over
    unparsed; a line of an unknown kind raises like parse()."""
    for idx, line in enumerate(lines):
        fields = line.split("|")
        if fields[0] not in READERS:  # a padded, blank or unknown line
            line = line.strip()
            if not line:
                continue
            fields = line.split("|")
        if fields[0] in kinds or fields[0] not in READERS:
            try:
                record = READERS[fields[0]](fields)
            except (KeyError, ValueError):
                record = parse(line.strip())  # raises, naming the line
            yield idx, record


# -- one writer and one reader per kind, in SCHEMA's field order ------------
# A reader takes the split line, kind first, and raises ValueError on a wrong
# field count or a bad integer; each kind ends in an integer, which int()
# reads through the whitespace a padded line ends in.

_new = tuple.__new__


def emit(node: int, src: int, seq: int, hop: int, time: int) -> str:
    return f"emit|{node}|{src}|{seq}|{hop}|{time}"


def _read_emit(fields: List[str]) -> Emit:
    _, node, src, seq, hop, time = fields
    return _new(Emit, (int(node), int(src), int(seq), int(hop), int(time)))


def deliver(node: int, src: int, seq: int, hop: int, time: int) -> str:
    return f"deliver|{node}|{src}|{seq}|{hop}|{time}"


def _read_deliver(fields: List[str]) -> Deliver:
    _, node, src, seq, hop, time = fields
    return _new(Deliver, (int(node), int(src), int(seq), int(hop), int(time)))


def verdict(node: int, src: Optional[int], seq: Optional[int],
            hop: Optional[int], outcome: str, time: int) -> str:
    return (f"verdict|{node}|{'-' if src is None else src}|"
            f"{'-' if seq is None else seq}|{'-' if hop is None else hop}|"
            f"{outcome}|{time}")


def _read_verdict(fields: List[str]) -> Verdict:
    _, node, src, seq, hop, outcome, time = fields
    return _new(Verdict, (int(node), None if src == "-" else int(src),
                          None if seq == "-" else int(seq),
                          None if hop == "-" else int(hop), outcome,
                          int(time)))


def attack(kind: str, where: str, src: Optional[int], seq: Optional[int],
           detail: str, time: int) -> str:
    return (f"attack|{kind}|{where}|{'-' if src is None else src}|"
            f"{'-' if seq is None else seq}|{detail}|{time}")


def _read_attack(fields: List[str]) -> Attack:
    _, kind, where, src, seq, detail, time = fields
    return _new(Attack, (kind, where, None if src == "-" else int(src),
                         None if seq == "-" else int(seq), detail, int(time)))


def store(src: int, seq: int, hop: int, cipher_hex: str, by: int,
          time: int) -> str:
    return f"store|{src}|{seq}|{hop}|{cipher_hex}|{by}|{time}"


def _read_store(fields: List[str]) -> Store:
    _, src, seq, hop, cipher_hex, by, time = fields
    return _new(Store, (int(src), int(seq), int(hop), cipher_hex, int(by),
                        int(time)))


def delete(src: int, seq: int, count: int, time: int) -> str:
    return f"delete|{src}|{seq}|{count}|{time}"


def _read_delete(fields: List[str]) -> Delete:
    _, src, seq, count, time = fields
    return _new(Delete, (int(src), int(seq), int(count), int(time)))


def rotate(epoch: int, time: int) -> str:
    return f"rotate|{epoch}|{time}"


def _read_rotate(fields: List[str]) -> Rotate:
    _, epoch, time = fields
    return _new(Rotate, (int(epoch), int(time)))


READERS = dict(emit=_read_emit, deliver=_read_deliver, verdict=_read_verdict,
               attack=_read_attack, store=_read_store, delete=_read_delete,
               rotate=_read_rotate)


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
