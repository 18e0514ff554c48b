#!/usr/bin/env python3
"""Validate a voyager-stats JSON document (stdlib only).

Usage: check_stats_schema.py <stats.json> [...]

Checks the versioned schema every bench binary emits via --stats_json
(see DESIGN.md section 5.11):

  {
    "schema": "voyager-stats",
    "version": 1,
    "meta": {str: str},
    "stats": {
      name: {"kind": "counter",   "value": int >= 0}
          | {"kind": "gauge",     "value": number | null}
          | {"kind": "running",   "count": int, "mean": ..., "stddev":
             ..., "min": ..., "max": ..., "sum": ...}
          | {"kind": "histogram", "lo": ..., "hi": ..., "total": int,
             "underflow": int, "overflow": int, "p50": ..., "p90": ...,
             "p99": ..., "buckets": [int, ...]}
    }
  }

Stat names must be dotted paths of [a-z0-9_+-] segments. Exits 1 and
prints every violation on the first offending file.

This checks a document's structure only. Which names each closed
stat namespace holds, and their kinds, is declared once in
src/util/stat_schema.cpp and enforced by StatRegistry when each name
is created, so every document the registry writes already satisfies
it.
"""

import json
import re
import sys

SEGMENT = re.compile(r"^[a-z0-9_+-]+$")

KIND_FIELDS = {
    "counter": {"value"},
    "gauge": {"value"},
    "running": {"count", "mean", "stddev", "min", "max", "sum"},
    "histogram": {"lo", "hi", "total", "underflow", "overflow",
                  "p50", "p90", "p99", "buckets"},
}


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_name(name, errors):
    if not name:
        errors.append("empty stat name")
        return
    for seg in name.split("."):
        if not SEGMENT.match(seg):
            errors.append(f"bad name segment {seg!r} in {name!r}")


def check_stat(name, body, errors):
    if not isinstance(body, dict):
        errors.append(f"{name}: stat body is not an object")
        return
    kind = body.get("kind")
    if kind not in KIND_FIELDS:
        errors.append(f"{name}: unknown kind {kind!r}")
        return
    fields = set(body) - {"kind"}
    expected = KIND_FIELDS[kind]
    if fields != expected:
        errors.append(
            f"{name}: fields {sorted(fields)} != expected "
            f"{sorted(expected)} for kind {kind}")
        return
    if kind == "counter":
        if not is_count(body["value"]):
            errors.append(f"{name}: counter value must be a "
                          f"non-negative integer, got {body['value']!r}")
    elif kind == "gauge":
        v = body["value"]
        if v is not None and not is_number(v):
            errors.append(f"{name}: gauge value must be a number or "
                          f"null, got {v!r}")
    elif kind == "running":
        if not is_count(body["count"]):
            errors.append(f"{name}: running count must be a "
                          f"non-negative integer")
        for f in ("mean", "stddev", "min", "max", "sum"):
            if body[f] is not None and not is_number(body[f]):
                errors.append(f"{name}: running {f} must be a number "
                              f"or null")
    elif kind == "histogram":
        for f in ("total", "underflow", "overflow"):
            if not is_count(body[f]):
                errors.append(f"{name}: histogram {f} must be a "
                              f"non-negative integer")
        for f in ("lo", "hi", "p50", "p90", "p99"):
            if body[f] is not None and not is_number(body[f]):
                errors.append(f"{name}: histogram {f} must be a "
                              f"number or null")
        buckets = body["buckets"]
        if (not isinstance(buckets, list)
                or not all(is_count(b) for b in buckets)):
            errors.append(f"{name}: histogram buckets must be a list "
                          f"of non-negative integers")
        elif (is_count(body["total"]) and is_count(body["underflow"])
              and is_count(body["overflow"])
              and sum(buckets) + body["underflow"] + body["overflow"]
              != body["total"]):
            errors.append(f"{name}: histogram counts do not sum to "
                          f"total")


def check_document(doc, errors):
    if not isinstance(doc, dict):
        errors.append("top level is not an object")
        return
    if doc.get("schema") != "voyager-stats":
        errors.append(f"schema is {doc.get('schema')!r}, expected "
                      f"'voyager-stats'")
    if doc.get("version") != 1:
        errors.append(f"version is {doc.get('version')!r}, expected 1")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        errors.append("meta is missing or not an object")
    else:
        for k, v in meta.items():
            if not isinstance(k, str) or not isinstance(v, str):
                errors.append(f"meta entry {k!r}: both key and value "
                              f"must be strings")
    stats = doc.get("stats")
    if not isinstance(stats, dict):
        errors.append("stats is missing or not an object")
        return
    for name, body in stats.items():
        check_name(name, errors)
        check_stat(name, body, errors)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for path in argv[1:]:
        errors = []
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{path}: unreadable or invalid JSON: {e}",
                  file=sys.stderr)
            return 1
        check_document(doc, errors)
        if errors:
            for e in errors:
                print(f"{path}: {e}", file=sys.stderr)
            return 1
        print(f"{path}: OK ({len(doc.get('stats', {}))} stats)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
