"""Output checks for benchmark ops, the result-line format, and self-tests.

Every op's ``jobs.csv`` is checked against the trace that produced it:
each job finishes exactly once, with its own processor count and run time,
never before its submission, and a sweep over start and end times shows the
processors in use never above the machine size. Heuristic ops at the default
seed are also compared byte-for-byte (by sha256) with digests recorded at
the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

DIGEST_CHARS = 16     # leading hex digits of sha256 kept in digests.json


def sha256_file(path: str) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()[:DIGEST_CHARS]


def read_jobs_csv(path: str) -> list[tuple[int, float, float, float, int]]:
    """Rows of (id, submit, start, end, procs) from a ``jobs.csv``."""
    with open(path) as fp:
        lines = fp.read().splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        rows.append((int(f[col["id"]]), float(f[col["submit_time"]]),
                     float(f[col["start_time"]]), float(f[col["end_time"]]),
                     int(f[col["procs"]])))
    return rows


def peak_procs(rows) -> int:
    """Most processors in use at any instant; jobs ending at t free before
    jobs starting at t take, as in the simulator."""
    events = []
    for _, _, start, end, procs in rows:
        events.append((start, 1, procs))
        events.append((end, 0, -procs))
    in_use = peak = 0
    for _, _, delta in sorted(events):
        in_use += delta
        peak = max(peak, in_use)
    return peak


def schedule_problems(rows, jobs: dict[int, tuple[float, float, int]],
                      total_procs: int) -> list[str]:
    """Invariant violations of one schedule; ``jobs`` maps id to
    (submit, run time, procs) of the input trace."""
    problems = []
    ids = [r[0] for r in rows]
    if len(ids) != len(set(ids)):
        problems.append("a job finished more than once")
    if set(ids) != set(jobs):
        missing = len(set(jobs) - set(ids))
        extra = len(set(ids) - set(jobs))
        problems.append(f"{missing} jobs never finished, {extra} unknown ids")
    for jid, submit, start, end, procs in rows:
        if jid not in jobs:
            continue
        want_submit, run, want_procs = jobs[jid]
        if start < submit:
            problems.append(f"job {jid} starts before submission")
        if submit != want_submit or procs != want_procs \
                or end != start + run:
            problems.append(f"job {jid} does not match its trace record")
    peak = peak_procs(rows)
    if peak > total_procs:
        problems.append(f"{peak} processors in use, machine has {total_procs}")
    return problems[:5]


def read_report(path: str) -> dict[str, str]:
    """First data row of a ``report.csv``, by column name."""
    with open(path) as fp:
        lines = [ln for ln in fp.read().splitlines() if not ln.startswith("#")]
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def digest_problems(got: dict[str, str], want: dict[str, str] | None,
                    key: str) -> list[str]:
    if want is None:
        return [f"no reference digests for {key}"]
    return [f"{key} {name}: sha256 {got[name]} != reference {want[name]}"
            for name in sorted(want) if got.get(name) != want[name]]


# -- the result line ----------------------------------------------------------

def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def parse_result_line(line: str) -> tuple[bool, int, int,
                                          dict[str, tuple[float, str]]]:
    d = json.loads(line)
    if set(d) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(d)}")
    metrics = {name: (m["value"], m["unit"]) for name, m in d["metrics"].items()}
    return d["correct"], d["attempted"], d["failed"], metrics


# -- self-tests ---------------------------------------------------------------

def self_test(work_dir: str) -> list[str]:
    """Show that each check can fail. Returns the checks that did not."""
    failures = []
    jobs = {1: (0.0, 10.0, 2), 2: (0.0, 10.0, 2), 3: (5.0, 5.0, 1)}
    header = "id,submit_time,start_time,end_time,wait_time,procs,policy\n"
    good = header + "1,0,0,10,0,2,x\n2,0,10,20,10,2,x\n3,5,10,15,5,1,x\n"
    # job 2 overlaps job 1: 4 processors on a 3-processor machine
    over = header + "1,0,0,10,0,2,x\n2,0,5,15,5,2,x\n3,5,10,15,5,1,x\n"
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        path = os.path.join(tmp, "jobs.csv")
        for text, want_ok in ((good, True), (over, False)):
            with open(path, "w") as fp:
                fp.write(text)
            ok = not schedule_problems(read_jobs_csv(path), jobs, 3)
            if ok != want_ok:
                failures.append("sweep: "
                                + ("flags a valid schedule" if want_ok
                                   else "misses an oversubscribed schedule"))
        reference = {"jobs": sha256_file(path)}
        with open(path, "rb") as fp:
            data = bytearray(fp.read())
        data[len(data) // 2] ^= 1
        with open(path, "wb") as fp:
            fp.write(bytes(data))
        if not digest_problems({"jobs": sha256_file(path)}, reference, "t"):
            failures.append("digest: misses a one-byte edit")
    metrics = {"setup_s": (0.123456789, "s"), "jobs_per_s": (1e4 / 3, "jobs/s")}
    if parse_result_line(result_line(True, 7, 1, metrics)) \
            != (True, 7, 1, metrics):
        failures.append("printer: the result line does not parse back")
    return failures
