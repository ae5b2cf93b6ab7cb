"""The one reader behind the line-record text formats.

The symbol file, the program model, the opportunity log, the image's
meta and crash sections and the minidump share one shape
(docs/formats.md): an optional header line `<TAG> v1 [<trailing text>]`,
then one record per line whose first whitespace-separated token is its
keyword (a symbol file's line record has none).  The decision log is
written in that shape too, but nothing reads it back.  Each parser gives
`read_records` a module-level table from keyword to handler and the
state its handlers fill, and every parser fails the same way: with its
format's error class, a `line N:` prefix and N as the error's `lineno`.
"""

from __future__ import annotations

# What a handler raises on a malformed record: a missing token or a child
# record before its parent (IndexError), a bad number (ValueError), a
# missing key=value field (KeyError).
RECORD_FAULTS = (ValueError, IndexError, KeyError)


def read_records(text, header, handlers, state, error, default=None):
    """Check the header, then call handlers[keyword](state, toks, line)
    for each record.

    The first non-blank line must be `header`, alone or followed by a
    space and trailing text, which is returned; a `header` of None means
    the text has none.  Blank lines are skipped.  A record whose first
    token is not in `handlers` goes to `default`, or is an unknown record
    if `default` is None.  An unknown record, and a ValueError,
    IndexError or KeyError from a handler, raise `error` with the message
    "line N: <record>: <cause>" and `lineno` N, counting from 1.
    """
    lines = enumerate(text.split("\n"), 1)
    trailing = ""
    if header is not None:
        for lineno, line in lines:
            if line.strip():
                break
        else:
            lineno, line = 1, ""
        if line != header and not line.startswith(header + " "):
            raise _at(error, lineno, "missing %s header" % header)
        trailing = line[len(header) + 1:]
    for lineno, line in lines:
        toks = line.split()
        if not toks:
            continue
        handler = handlers.get(toks[0], default)
        if handler is None:
            raise _at(error, lineno, "unknown record %r" % toks[0])
        try:
            handler(state, toks, line)
        except RECORD_FAULTS as e:
            raise _at(error, lineno, "%s: %s %s"
                      % (toks[0], type(e).__name__, e)) from None
    return trailing


def _at(error, lineno, message):
    e = error("line %d: %s" % (lineno, message))
    e.lineno = lineno
    return e


def fields(line, *keys):
    """Values of the `key=value` fields that end `line`, in `keys` order.

    Each value runs up to the next key's ` key=` (the last one to the end
    of the line), so a trailing name may hold spaces.  A missing key
    raises KeyError.
    """
    values = []
    for key in keys:
        head, sep, line = line.partition(" %s=" % key)
        if not sep:
            raise KeyError(key)
        values.append(head)
    values.append(line)
    return values[1:]
