"""The name catalog check shared by check_trace.py and check_forensics.py.

Span, counter and histogram names are registered in src/flux/trace.h, and
flight-recorder event names in src/flux/flight_recorder.h, as

    inline constexpr std::string_view kFoo = "layer.what";

OBSERVABILITY.md catalogs them in tables whose first column header is
"span", "counter", "histogram" or "event". The check runs both ways: every
registered name must appear in the docs, and every name a catalog row
lists must still be registered. A template row such as `pipeline/<stage>`
matches the registered prefix before its `<`.
"""

import re

NAME_RE = re.compile(r'std::string_view\s+k\w+\s*=\s*\n?\s*"([a-z0-9_./]+)"')
# A cataloged name is one backticked token without spaces; row text such
# as `chunk N` is prose, not a name.
ROW_NAME_RE = re.compile(r"`([^`\s]+)`")


def registered_names(header):
    """Every string constant in a header's inline constexpr name table."""
    with open(header) as f:
        return NAME_RE.findall(f.read())


def catalog_rows(docs, tables):
    """(table, name) for each name in the first column of the `tables`."""
    rows = []
    table = None
    for line in docs.splitlines():
        if not line.startswith("|"):
            table = None
            continue
        first = line.split("|")[1].strip()
        if table is None:
            table = first if first in tables else ""
            continue
        if table and not first.startswith("---"):
            rows.extend((table, name) for name in ROW_NAME_RE.findall(first))
    return rows


def is_registered(name, registered):
    if "<" in name:
        return name[:name.index("<")] in registered
    return name in registered


def check_catalog(documented, registered, observability_md, tables, what,
                  fail):
    """Fails unless every name in `documented` appears in the docs and
    every row of `tables` there lists only names in `registered`."""
    with open(observability_md) as f:
        docs = f.read()
    missing = [name for name in documented if name not in docs]
    if missing:
        fail("%s registered but undocumented in %s: %s"
             % (what, observability_md, ", ".join(missing)))
    registered = set(registered)
    stale = ["%s `%s`" % row for row in catalog_rows(docs, tables)
             if not is_registered(row[1], registered)]
    if stale:
        fail("rows in %s name nothing registered: %s"
             % (observability_md, ", ".join(stale)))
