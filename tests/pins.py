"""Every pinned output of the command line, one row each in ``pins.json``.

A row is a JSON object with
- ``args``: the command line after ``longcycles``, split at spaces;
- ``threads`` (optional): thread counts; the line runs once with
  ``--threads t`` appended for each ``t``, and every run must meet the row's
  expectation, so all of them print the same bytes;
- exactly one expectation: ``stdout``, the exact standard output;
  ``sha256``, the hex digest of the standard output; or ``exit``, a nonzero
  exit code;
- ``tier``: ``tier1`` rows run in-process through ``cli.main`` in the tier-1
  tests (``test_pins.py``); ``ci`` rows, the long sweeps and the exit codes,
  run through the ``longcycles`` console script;
- ``max_rss_mb`` (optional, ``ci`` rows only): a bound on the peak resident
  set of every run, in MiB, read from ``os.wait4`` (``ru_maxrss`` is in KiB
  on Linux).  Each bound is the peak measured when it was set plus about
  15%; every ``sha256`` row of the ``ci`` tier has one.

A ``stdout`` or ``sha256`` row must exit 0.  An ``exit`` row must print
nothing to standard output and no traceback, and exit 2, a usage error, must
start standard error with ``usage: longcycles <leaf> ``: the usage of the
row's command, its leading words before the first flag.

Why some ``ci`` rows are there, and what they cost on a two-core CI runner:
- ``oracle pairs --n 8``, threads 1, 2, 3: three chunks of 280 head
  groups cut pattern classes at other places than two chunks of 420; about
  42 MB with or without ``--alpha 3,5``, bounded at 49;
- ``oracle pairs --n 7 --alpha 3,4``, threads 1, 3: an odd ``n``, so an odd
  half of digits; about 36 MB, bounded at 41;
- ``oracle pairs --n 9``: the 1.63G pairs at the sweep's limit, about 4 s
  and 109 MB at either thread count, bounded at 126 MB;
- ``verify --suite formulas --suite parity --max-n 9``: 5,215 reports and
  2,196 audit records over the ``n = 9`` pair sweep, about 5 s and 113 MB,
  bounded at 130 MB;
- ``verify --suite parity --max-n 9``, threads 1, 2: the parity audit
  alone at the pair sweep's limit, whose output a later split of its work
  over the workers must keep; about 3 s and 111 MB, bounded at 127 MB;
- ``oracle diagonal --n 9 --alpha 4,5``: about 44 MB, bounded at 51;
- ``oracle diagonal --n 10``: the sweep's limit, the 362,880 long cycles,
  about 0.5 s and 112 MB, bounded at 133 MB; with ``--eta 5+5 --alpha 5,5``
  also about 112 MB, bounded at 129;
- ``verify --max-n 7``: the text form prints one summary line per identity,
  then PASS; the JSON form at threads 2 and 3 counts the plane suite's words
  in two processes, then in three chunks; about 51 MB either way, bounded at
  61 MB (text) and 62 MB (JSON);
- ``verify --suite plane --max-n 7``, threads 1, 2, 3: the plane suite
  alone at its limit, 3.6M arrays and 18.1M transpositions; about 41 MB,
  bounded at 48;
- ``verify --suite baserecur --baserecur-max-n 13`` and ``14``: 264,499
  and, at the suite's limit, 713,709 reports, held as int64 columns and
  written 1,024 at a time: about 1 s and 46 MB, bounded at 53 MB, and
  2-3 s and 64 MB, bounded at 74 MB;
- the ``exit`` 2 rows other than ``--force`` and ``--parts 0``: each
  command declares only the flags it reads, so argparse rejects the rest
  itself;
- ``table separating-total --n 3 --parts 0``: a composition has at least
  one part, so ``--parts`` below 1 is a usage error, while a ``--parts``
  above ``n`` is valid and prints an empty table.

Run every ``ci`` row through the installed console script, one line per row,
and exit 1 naming every row that failed:

    python tests/pins.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())
EXPECTATIONS = ("stdout", "sha256", "exit")
TIERS = ("tier1", "ci")

# argv -> exit code, stdout, stderr, and the peak RSS in MiB where it was measured
Run = Callable[[list[str]], tuple[int, bytes, str, float | None]]


def leaf(row: dict) -> str:
    """The command a row runs: the words of ``args`` before its first flag."""
    return " ".join(itertools.takewhile(lambda word: not word.startswith("-"), row["args"].split()))


def label(row: dict) -> str:
    threads = row.get("threads")
    return row["args"] + (f" (threads {','.join(map(str, threads))})" if threads else "")


def argvs(row: dict) -> list[list[str]]:
    argv = row["args"].split()
    return [[*argv, "--threads", str(t)] for t in row["threads"]] if "threads" in row else [argv]


def _faults(row: dict, code: int, out: bytes, err: str, rss: float | None) -> Iterator[str]:
    if "max_rss_mb" in row and rss is None:
        yield "peak RSS not measured: a max_rss_mb row runs through the console script"
    elif "max_rss_mb" in row and rss > row["max_rss_mb"]:
        yield f"peak RSS {rss} MB, bound {row['max_rss_mb']} MB"
    if "exit" not in row:
        if code != 0:
            yield f"exited {code}, expected 0: {err.strip()[-300:]}"
        elif "stdout" in row and out != row["stdout"].encode():
            yield f"printed {out.decode(errors='replace')!r}, pinned {row['stdout']!r}"
        elif "sha256" in row and (digest := hashlib.sha256(out).hexdigest()) != row["sha256"]:
            yield f"printed sha256 {digest}, pinned {row['sha256']}"
        return
    if code != row["exit"]:
        yield f"exited {code}, expected {row['exit']}: {err.strip()[-300:]}"
    if out:
        yield f"printed {out[:300].decode(errors='replace')!r} to stdout"
    if "Traceback" in err:
        yield "printed a traceback"
    usage, first_line = f"usage: longcycles {leaf(row)} ", err.partition("\n")[0]
    if row["exit"] == 2 and not first_line.startswith(usage):
        yield f"printed {first_line!r} first, not {usage!r}"


def problems(row: dict, run: Run) -> list[str]:
    """What is wrong with each run of a row, one line each; empty if the row holds."""
    return [f"{' '.join(argv)}: {fault}" for argv in argvs(row) for fault in _faults(row, *run(argv))]


def in_process(argv: list[str]) -> tuple[int, bytes, str, None]:
    from longcycles import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue(), None


def console_script(argv: list[str]) -> tuple[int, bytes, str, float]:
    # the output goes to files, so that os.wait4 can reap the process and
    # read its peak RSS while nothing waits on a full pipe.  A preexec_fn
    # makes subprocess fork instead of vfork: Linux carries a process's peak
    # RSS across exec, and a vforked child's is this runner's own peak (the
    # largest output it has read so far), while a forked child's starts at
    # this runner's current RSS, far below any bound
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(["longcycles", *argv], stdout=out, stderr=err, preexec_fn=os.getpid)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait for it again
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read().decode(errors="replace"), round(usage.ru_maxrss / 1024, 1)


def main() -> int:
    failed = []
    for row in PINS:
        if row["tier"] == "ci":
            start = time.perf_counter()
            found = problems(row, console_script)
            print("FAIL" if found else "ok", f"{time.perf_counter() - start:5.1f} s", label(row), flush=True)
            failed += found
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
