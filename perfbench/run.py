#!/usr/bin/env python3
"""PER query benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark driver from source with sbt (once per
source state; the build lives in $CARGO_TARGET_DIR, default .bench_build),
then runs the driver in one JVM on a local Spark session. The driver prints
a run header, its checks, and as the last line a JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero without a result if
the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Time limits of one invocation, build included; a build may take longer.
LIMIT_S = 175
LIMIT_WITH_BUILD_S = 890
# Spark on Java 17 needs these packages opened (as its own launcher does).
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def sources():
    """Every file the build reads, in a stable order."""
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", HERE / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def stamp():
    h = hashlib.sha256()
    for p in sources():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout and
    waits until it has ended."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build(build_dir, want):
    """Returns the runtime classpath and whether a build ran; builds only if
    a source changed since the last build (`want` is the sources' stamp)."""
    cp_file = build_dir / "classpath.txt"
    stamp_file = build_dir / "stamp.txt"
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == want:
        return cp_file.read_text(), False
    env = dict(os.environ, PERFBENCH_TARGET=str(build_dir / "sbt-target"))
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false",
           f"writeClasspath {cp_file}"]
    code = run_bounded(cmd, LIMIT_WITH_BUILD_S - 60, cwd=HERE, env=env, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: build failed (exit {code})")
    stamp_file.write_text(want)
    return cp_file.read_text(), True


def main():
    # On SIGTERM, unwind so that run_bounded stops the child's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if not (ROOT / "src" / "main" / "scala").is_dir():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src' / 'main' / 'scala'}")

    t0 = time.time()
    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    want = stamp()
    cp, built = build(build_dir, want)

    # A young generation this large keeps GC pauses out of the tail
    # percentile; pre-touching it keeps page faults out of the timings
    # (see README.md).
    cmd = ["java", "-Xmx3g", "-Xmn2560m", "-XX:+AlwaysPreTouch", "-XX:+UseG1GC", f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}", "-Dspark.driver.host=127.0.0.1",
           f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}",
           # Ground truth per (graph, s, t), valid for this source state only.
           f"-Dperfbench.cache={build_dir / ('truth-' + want[:16])}"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in JAVA_OPENS]
    cmd += ["-cp", cp, "perfbench.PerfBench", "--workload", a.workload,
            "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    out_file = tmp / f"out-{os.getpid()}.txt"
    limit = (LIMIT_WITH_BUILD_S if built else LIMIT_S) - (time.time() - t0)
    with open(out_file, "w") as out:
        code = run_bounded(cmd, limit, cwd=ROOT, stdout=out)
    lines = out_file.read_text().splitlines()
    out_file.unlink()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        sys.exit(f"perfbench: run failed (exit {code}) after {time.time() - t0:.1f}s")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
