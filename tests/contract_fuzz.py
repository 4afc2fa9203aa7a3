"""Contract fuzzer for the command line: every run ends in exit 0, 1 or 2.

Drives cli.main in-process on seeded random argument lists covering every
subcommand, every format and the cap flags, on shapes from desk size to
margins near 10**18, some of them unbalanced, zero or negative.  Each call
must return 0, 1 or 2 with no exception escaping, and leave CPython's
int-to-str digit limit as it found it.  A negative cap or --eval, or a
--digits outside 1..17, is a bad argument and must exit 1, whatever else the
call would do.  Exit 1 and out of memory write one line on stderr and no
record; any other exit writes a record that reads back in its format and
holds no nan or infinity, and on exit 2 it carries the cap fields error,
kind, limit and used.

An answer is right: each exit-0 count, delta and decompose whose margins,
in either orientation, count_bruteforce enumerates in at most
ORACLE_MAX_ROW_TUPLES row tuples must give its count, as a decimal string.

A cap never truncates: each call that exits 0 within half of TIMEOUT_S and
whose subcommand reads caps runs again with every cap it reads halved, given
or default.  The rerun must exit 0 with the same record apart from
runtime_s, or report a cap: exit 2, or for the exact column of compare and
verify-integral an exact_reason in place of exact.  A compare table (text
format) is not read back, so it is not rerun.  The reruns draw nothing from
the random stream, so a seed's command lines do not depend on them.

A per-call alarm stops a call or rerun still running after TIMEOUT_S
seconds; such calls are skipped, listed on stderr and counted as slow, and
a run with more than MAX_SLOW_SHARE of its cases slow fails.  The address space of
this process is limited to MEMORY_MB, so a call that would take the
machine's memory fails with MemoryError (exit 2) instead.  Exits 1 and prints the argument
lists of the breaks if there are any, or if too many cases were slow.

    PYTHONPATH=src python tests/contract_fuzz.py [--seed N] [--cases N]

pytest does not collect this file; the defaults took about 11 s on a
2-vCPU x86_64 VM, most of it in the calls that the alarm stops.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import random
import resource
import signal
import sys
import time
import traceback

import numpy  # noqa: F401  (imported before the address space is limited)

from contab import cli, exact, integral
from contab.core import make_spec

FORMATS = ("text", "json", "csv")
METHODS = ("good", "thm1", "thm1-closed", "cor1", "conj1")
# seconds a call may run before it is skipped as slow
TIMEOUT_S = 2.0
# address-space limit of this process
MEMORY_MB = 2048
# a run that skips a larger share of its calls as slow checked too little to
# pass, so a change that slows calls cannot turn breaks into skips: seed 0 at
# 300 cases skips 4 (large ehrhart and mc runs) on a 2-vCPU x86_64 VM, so
# 10 leaves room for a slower machine; seeds 1-5 skip 5 to 13, and seed 2
# (13) fails on this bound alone
MAX_SLOW_SHARE = 1 / 30
# the cap flags each subcommand reads, with their defaults
EXACT_CAPS = {"--max-states": exact.DEFAULT_MAX_STATES, "--max-work": exact.DEFAULT_MAX_WORK}
CAPS = {command: EXACT_CAPS for command in ("count", "decompose", "compare", "ehrhart", "delta")}
CAPS["verify-integral"] = {**EXACT_CAPS, "--max-evals": integral.DEFAULT_MAX_EVALS}
# the fields of an exact count that compare and verify-integral replace by
# exact_reason when a cap stops it
EXACT_FIELDS = ("exact", "exact_reason", "relative_error")
# the exact counts checked against count_bruteforce: those whose spec or
# its transpose enumerates at most this many row tuples C(s+n-1, n-1)^m
ORACLE_MAX_ROW_TUPLES = 10 ** 4
# the field of the exact count in each record that the oracle checks
ORACLE_FIELDS = {"count": "value", "delta": "exact", "decompose": "exact"}
# CPython's int-to-str digit limit (from 3.10.7 on; 0 means none), which
# cli.main lifts while it runs and must put back
DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)


class _Slow(BaseException):
    """Raised by the alarm; a BaseException, so no handler in contab catches it."""


def _alarm(signum, frame):
    raise _Slow


def _size(rng: random.Random) -> int:
    """A row or column count: mostly desk sized, sometimes huge."""
    return rng.choice([rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 10),
                       rng.randint(1, 40), rng.randint(1, 10 ** 4),
                       rng.randint(1, 10 ** 18)])


def _shape(rng: random.Random) -> list[str]:
    """m s n t: balanced in most draws, margins from 0 to near 10**18."""
    m, n = _size(rng), _size(rng)
    g = math.gcd(m, n)
    top = max(1, 10 ** 18 // max(m, n) * g)
    q = int(top ** rng.random()) if rng.random() < 0.9 else rng.randint(0, 3)
    s, t = q * n // g, q * m // g
    twist = rng.random()
    if twist < 0.05:
        t += 1                       # unbalanced
    elif twist < 0.08:
        s, t = -s, -t                # negative
    elif twist < 0.1:
        m = rng.choice([0, -1])      # no rows
    return [str(m), str(s), str(n), str(t)]


def _cap(rng: random.Random) -> str:
    return str(rng.choice([0, 1, rng.randint(0, 100), rng.randint(0, 10 ** 4),
                           10 ** 6, 2 ** 20, 10 ** 9, -1]))


def _argv(rng: random.Random) -> list[str]:
    """One random command line; flags are drawn only for the subcommands that take them."""
    command = rng.choice(["count", "estimate", "decompose", "compare", "mc", "ehrhart",
                          "verify-integral", "check-hypothesis", "delta"])
    if command == "ehrhart":
        argv = [command, *(str(min(_size(rng), rng.choice([3, 8, 10 ** 18])))
                           for _ in range(2))]
    else:
        argv = [command, *_shape(rng)]
    argv += ["--format", rng.choice(FORMATS)]
    if command in CAPS:
        for flag in EXACT_CAPS:
            if rng.random() < 0.5:
                argv += [flag, _cap(rng)]
    if command in ("estimate", "compare", "mc") and rng.random() < 0.3:
        argv += ["--digits", str(rng.choice([-1, 0, 1, 4, 17, 400]))]
    if command == "estimate":
        argv += ["--method", rng.choice(METHODS)]
    elif command == "compare" and rng.random() < 0.3:
        argv += ["--mc-samples", str(rng.choice([0, 1, 2, 100, 10 ** 4])),
                 "--seed", str(rng.randint(-1, 2 ** 64))]
    elif command == "mc":
        argv += ["--samples", str(rng.choice([0, 1, 2, 10, 1000, 10 ** 6])),
                 "--seed", str(rng.choice([0, 7, -1, 2 ** 64, 10 ** 30]))]
    elif command == "ehrhart" and rng.random() < 0.5:
        argv += ["--eval", str(rng.choice([-1, 0, 5, 10 ** 18, 10 ** rng.randint(1, 4000)]))]
    elif command == "verify-integral":
        argv += ["--grid", str(rng.choice([1, 2, 3, 8, 64, 10 ** 6]))]
        if rng.random() < 0.5:
            argv += ["--max-evals", _cap(rng)]
        if rng.random() < 0.3:
            argv.append("--bounds")
    elif command == "check-hypothesis" and rng.random() < 0.5:
        argv += ["--a", rng.choice(["0", "1.5", "-2", "1e308", "inf", "nan"])]
    return argv


def _strict(constant: str):
    raise ValueError(f"the record holds {constant}")


def _record(out: str, fmt: str) -> dict:
    """The record a run wrote, parsed back from its format; ValueError if it cannot be."""
    if fmt == "json":
        return json.loads(out, parse_constant=_strict)
    if fmt == "csv":
        header, row = csv.reader(io.StringIO(out))
        record = dict(zip(header, row, strict=True))
    else:
        record = dict(line.split(": ", 1) for line in out.splitlines())
    for value in record.values():
        if value in ("nan", "inf", "-inf"):
            _strict(value)
    return record


def _bad_value(argv: list[str]) -> bool:
    """Whether argv gives a negative cap or --eval, or a --digits outside 1..17."""
    flags = dict(zip(argv, argv[1:]))
    return (any(flags.get(flag, "").startswith("-")
                for flag in ("--max-states", "--max-work", "--max-evals", "--eval"))
            or not 1 <= int(flags.get("--digits", 1)) <= 17)


def check(argv: list[str]) -> tuple[str | None, int | None, dict | None]:
    """Run one command line: what broke (None if it kept the contract), its
    exit code, and the record it wrote if that reads back."""
    out, err, digits = io.StringIO(), io.StringIO(), DIGITS()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except _Slow:
        raise
    except BaseException:
        return traceback.format_exc(), None, None
    out, err = out.getvalue(), err.getvalue()
    if DIGITS() != digits:
        return (f"the int-to-str digit limit is {DIGITS()} after the call, {digits} before",
                code, None)
    if code not in (0, 1, 2):
        return f"exit {code!r}, stderr {err!r}", code, None
    if code != 1 and _bad_value(argv):
        return f"exit {code} on a bad argument, stderr {err!r}", code, None
    if code == 1 or err == "contab: resource limit: out of memory\n":
        if out or not err.startswith("contab: ") or err.count("\n") != 1:
            return f"exit {code} wrote stdout {out!r} and stderr {err!r}", code, None
        return None, code, None
    fmt = argv[argv.index("--format") + 1]
    if argv[0] == "compare" and fmt == "text":
        return None, code, None      # a table, not key: value lines
    try:
        record = _record(out, fmt)
    except ValueError as exc:
        return f"exit {code} wrote an unreadable record ({exc}): {out!r}", code, None
    if code == 2 and (record.get("error") != "resource_limit"
                      or not {"kind", "limit", "used"} <= set(record)):
        return f"exit 2 record lacks the cap fields: {record}", code, record
    return None, code, record


def small(argv: list[str]) -> tuple | None:
    """The margins of an exit-0 call that the oracle checks, in the orientation
    count_bruteforce enumerates fewer row tuples of; None past its bound."""
    if argv[0] not in ORACLE_FIELDS:
        return None
    m, s, n, t = map(int, argv[1:5])
    if m * n > exact.BRUTEFORCE_MAX_CELLS or max(s, t) > exact.BRUTEFORCE_MAX_ROWSUM:
        return None
    tuples, shape = min((math.comb(s + n - 1, n - 1) ** m, (m, s, n, t)),
                        (math.comb(t + m - 1, m - 1) ** n, (n, t, m, s)))
    return shape if tuples <= ORACLE_MAX_ROW_TUPLES else None


def oracle(argv: list[str], record: dict, shape: tuple) -> str | None:
    """How the exact count in record differs from count_bruteforce's; None if it agrees."""
    want = str(exact.count_bruteforce(make_spec(*shape)))
    field = ORACLE_FIELDS[argv[0]]
    if record.get(field) != want:
        return f"{field} {record.get(field)!r}, where count_bruteforce gives {want}"
    return None


def halved(argv: list[str]) -> list[str]:
    """argv with every cap its subcommand reads halved, the given value or the default."""
    argv = list(argv)
    for flag, default in CAPS[argv[0]].items():
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = str(int(argv[i]) // 2)
        else:
            argv += [flag, str(default // 2)]
    return argv


def check_halved(argv: list[str], record: dict) -> str | None:
    """Rerun an exit-0 call with its caps halved; None if the cap did not truncate it."""
    broke, code, again = check(argv)
    if broke is None and code == 1:
        broke = "exit 1"
    elif broke is None and code == 0:
        # the smaller caps may stop the exact count of compare or verify-integral
        drop = {"runtime_s", *(EXACT_FIELDS if again.get("exact_reason") else ())}
        if {k: v for k, v in again.items() if k not in drop} != \
                {k: v for k, v in record.items() if k not in drop}:
            broke = f"exit 0 with record {again}, where the full caps wrote {record}"
    return broke and f"with every cap halved, {_show(argv)}: {broke}"


def _alarmed(call, *args):
    """call(*args) under the per-call alarm; _Slow once it overruns TIMEOUT_S."""
    digits = DIGITS()
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        return call(*args)
    except _Slow:
        if digits:                   # the alarm may have cut main's restore short
            sys.set_int_max_str_digits(digits)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _show(argv: list[str]) -> str:
    return "contab " + " ".join(a if len(a) < 40 else f"<{len(a)} digits>" for a in argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=300)
    args = parser.parse_args()
    limit = MEMORY_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    signal.signal(signal.SIGALRM, _alarm)
    rng = random.Random(args.seed)
    breaks, slow, slowest, reruns, checked = [], [], (0.0, []), 0, 0
    for _ in range(args.cases):
        argv = _argv(rng)
        started = time.perf_counter()
        try:
            broke, code, record = _alarmed(check, argv)
        except _Slow:
            broke, code, record = None, None, None
            slow.append(argv)
        # the alarm interrupts Python code only, so a long C call can overrun it
        elapsed = time.perf_counter() - started
        slowest = max(slowest, (elapsed, argv))
        shape = small(argv) if not broke and code == 0 and record is not None else None
        if shape:
            broke, checked = oracle(argv, record, shape), checked + 1
        if not broke and code == 0 and record is not None and argv[0] in CAPS \
                and elapsed <= TIMEOUT_S / 2:
            rerun, reruns = halved(argv), reruns + 1
            try:
                broke = _alarmed(check_halved, rerun, record)
            except _Slow:
                slow.append(rerun)
        if broke:
            breaks.append((argv, broke))
    for argv, broke in breaks:
        print(_show(argv), file=sys.stderr)
        print("    " + broke.strip().replace("\n", "\n    "), file=sys.stderr)
    for argv in slow:
        print(f"slow: {_show(argv)}", file=sys.stderr)
    too_slow = len(slow) > MAX_SLOW_SHARE * args.cases
    print(f"{args.cases} cases at seed {args.seed} ({checked} checked against "
          f"count_bruteforce, {reruns} rerun with every cap halved): "
          f"{len(breaks)} broke the contract, "
          f"{len(slow)} skipped as slower than {TIMEOUT_S} s"
          f"{' (too many, so the run fails)' if too_slow else ''}; the slowest took "
          f"{slowest[0]:.1f} s: {_show(slowest[1])}")
    return 1 if breaks or too_slow else 0


if __name__ == "__main__":
    sys.exit(main())
