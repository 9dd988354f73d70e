"""The event-line schema: one `|`-separated record per line.

A run's events.log is the record of the protocol: packet emissions and
deliveries, per-hop verdicts, attacks, provenance-store writes and deletes,
and key rotations.  SCHEMA below is the only place that lists a kind's
fields: each kind's record type, its writer (a plain f-string function, so
writing a line builds no object) and its reader (READERS) are built from
it, and parse() and read() go through the readers.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, Iterator, List, Union

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
    # each known kind's reader, or False when it was not asked for
    table = {kind: kind in kinds and reader for kind, reader in READERS.items()}
    for idx, line in enumerate(lines):
        fields = line.split("|")
        reader = table.get(fields[0])
        if reader:
            try:
                record = reader(fields)
            except ValueError:
                record = parse(line.strip())  # or raise, naming the line
            yield idx, record
        elif reader is None:  # a padded, blank or unknown line
            line = line.strip()
            if line and table.get(line.split("|", 1)[0], True):
                yield idx, parse(line)  # an unknown kind raises


# -- one writer and one reader per kind, compiled from SCHEMA ----------------

def _source(kind: str, spec: str) -> str:
    """Python source for `kind`'s writer and its reader `_read_<kind>`;
    printing it shows the code that runs.  A plain name is written as it is
    and read with int(), a "name?" is written and read as "-" when None, and
    a "name$" passes through as text.  The reader takes the split line, kind
    first, and raises ValueError on a wrong field count or a bad integer;
    each kind ends in an integer, which int() reads through the whitespace a
    padded line ends in."""
    names, written, read = [], [], []
    for field in spec.split():
        name = field.rstrip("?$")
        names.append(name)
        if field.endswith("?"):
            written.append(f"{{'-' if {name} is None else {name}}}")
            read.append(f"None if {name} == '-' else int({name})")
        else:
            written.append(f"{{{name}}}")
            read.append(name if field.endswith("$") else f"int({name})")
    args = ", ".join(names)
    return (f"def {kind}({args}):\n"
            f"    return f\"{'|'.join([kind] + written)}\"\n\n\n"
            f"def _read_{kind}(fields):\n"
            f"    _, {args} = fields\n"
            f"    return _new({kind.capitalize()}, ({', '.join(read)}))\n")


# the writers' and readers' globals; __name__ makes them this module's
_compiled = {"__name__": __name__, "_new": tuple.__new__, **{
    record.__name__: record for record in (
        Emit, Deliver, Verdict, Attack, Store, Delete, Rotate)}}
for _kind, _spec in SCHEMA.items():
    exec(compile(_source(_kind, _spec), f"<events.{_kind}>", "exec"),
         _compiled)

emit, deliver, verdict, attack, store, delete, rotate = (
    _compiled[kind] for kind in SCHEMA)
READERS = {kind: _compiled[f"_read_{kind}"] for kind in SCHEMA}


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
