"""Host filesystem IO with one crash-safe write discipline — and one
seam for injecting host faults into it.

Everything the harness persists as JSON (checkpoint manifests, shard
results, job records) goes through :func:`atomic_write_json`: write to
``<path>.tmp``, then ``os.replace`` onto the destination.  A crash at
any instant leaves either the previous document or the new one — never
a half-written file — plus, at worst, a stale ``.tmp`` that
:func:`sweep_stale_tmp` removes the next time the directory is opened.

The module carries the repo's single **host-fault injection seam**: a
chaos run (:mod:`repro.resil.chaos`) installs an injector object here
and every atomic write consults it —

* ``before_write(op, path)`` may raise an injected IO error (ENOSPC,
  EIO) exactly where a real ``open``/``write`` would;
* ``torn_write(op, path)`` simulates a crash *between* the tmp write
  and the rename: the tmp file is truncated mid-document, the rename
  never happens, and a typed crash propagates;
* ``after_write(op, path)`` perturbs the world after a successful
  write: dropping stale ``.tmp`` debris or bit-flipping the document
  that was just persisted (the corruption a CRC check must catch).

The seam is deliberately dumb — it knows nothing about schedules or
fault classes; the injector decides.  Production runs never install
one, so the hot path is a single global read per write.

``op`` tags name the call site (``"manifest"``, ``"shard_result"``,
``"job_record"``, …) so schedules can aim at one persistence layer.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Optional

TMP_SUFFIX = ".tmp"

#: the installed fault injector (None in production runs)
_INJECTOR: Optional[Any] = None


def set_injector(injector: Optional[Any]) -> Optional[Any]:
    """Install (or clear, with None) the host-fault injector; returns
    the previous one so callers can restore it."""
    global _INJECTOR
    previous = _INJECTOR
    _INJECTOR = injector
    return previous


@contextmanager
def inject_faults(injector: Optional[Any]):
    """Arm ``injector`` for the duration of the block (restores the
    previous injector on exit, even when the block raises — a torn
    write *will* raise)."""
    previous = set_injector(injector)
    try:
        yield injector
    finally:
        set_injector(previous)


def atomic_write_json(path: str, payload: Dict[str, Any], *,
                      op: str = "json") -> None:
    """Write ``payload`` to ``path`` crash-atomically (tmp +
    ``os.replace``), threading the chaos seam.

    Injected ENOSPC/EIO raise *before* anything is written (the
    failure a full disk produces on ``open``); a torn write leaves a
    truncated ``<path>.tmp``, keeps the destination untouched, and
    raises a typed crash — the exact debris a kill between the two
    steps leaves behind.
    """
    injector = _INJECTOR
    if injector is not None:
        injector.before_write(op, path)    # may raise InjectedIOFault
    tmp = path + TMP_SUFFIX
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if injector is not None and injector.torn_write(op, path):
        from repro.errors import InjectedCrash
        with open(tmp, "w") as handle:
            handle.write(rendered[:max(1, len(rendered) // 2)])
        raise InjectedCrash(
            f"chaos: crash between tmp write and rename of {path}",
            fault="torn_write", op=op, path=path)
    with open(tmp, "w") as handle:
        handle.write(rendered)
    os.replace(tmp, path)
    if injector is not None:
        injector.after_write(op, path)


def sweep_stale_tmp(directory: str) -> int:
    """Remove ``*.tmp`` crash debris from ``directory``; returns the
    count removed.

    Safe only because every writer follows the single-writer,
    open-then-run discipline: a ``.tmp`` present when a directory is
    *opened* can only be the corpse of an interrupted atomic write,
    never a live one.  Missing directories are a no-op (sweeps run
    before ``makedirs``).
    """
    removed = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    for name in names:
        if not name.endswith(TMP_SUFFIX):
            continue
        try:
            os.unlink(os.path.join(directory, name))
            removed += 1
        except OSError:
            continue        # raced or unreadable: never fatal
    return removed


def crc32_of_json(payload: Any) -> int:
    """CRC32 over the canonical (sorted, compact) JSON rendering of
    ``payload`` — the checksum shard-result files carry so bit-flipped
    payloads demote to pending instead of merging silently."""
    rendered = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))
    return zlib.crc32(rendered.encode("utf-8")) & 0xFFFFFFFF
