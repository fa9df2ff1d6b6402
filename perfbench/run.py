#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload construct|serve --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program and the
benchmark from source with sbt (perfbench/build.sbt) and reuses the build
while the sources are unchanged. Output: the benchmark's report lines
(prefixed with '#'), then one JSON line with correct/attempted/failed and
the metrics: end-to-end ones untraced, per-layer ones traced. Exits 0 when
every correctness check passed, 1 when one failed, 2 when it could not run.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSES = os.path.join(TARGET, "scala-2.13", "classes")
STAMP = os.path.join(TARGET, "perfbench-source-hash")
STATE = os.path.join(ROOT, ".bench_build", "perfbench")

SOURCES = [
    os.path.join(ROOT, "src", "main", "scala"),
    os.path.join(ROOT, "jobs"),
    os.path.join(HERE, "src", "main"),
    os.path.join(HERE, "build.sbt"),
    os.path.join(HERE, "project", "build.properties"),
]

HEAP = "3g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    h = hashlib.sha256()
    for top in SOURCES:
        if not os.path.exists(top):
            fail(f"missing {os.path.relpath(top, ROOT)}: not a checkout of the program")
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


class Stopped(Exception):
    """This script was told to stop while a child ran."""


def kill_group(proc):
    """Kill a child's process group and wait for the child to end."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_group(cmd, cwd, env, timeout, **kw):
    """Run a command in its own process group. The group is killed on
    timeout, when this script is told to stop (SIGTERM, SIGINT), and after
    the command ends, so nothing it started outlives it."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True, **kw)

    def stop(signum, _frame):
        raise Stopped(signum)

    old = {sig: signal.signal(sig, stop) for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
        kill_group(proc)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        fail(f"{cmd[0]} timed out after {timeout} s")
    except Stopped as e:
        kill_group(proc)
        fail(f"stopped by signal {e}")
    finally:
        for sig, handler in old.items():
            signal.signal(sig, handler)
    return proc.returncode, out


def spark_home():
    home = os.environ.get("SPARK_HOME", "")
    if not os.path.isdir(os.path.join(home, "jars")):
        fail("SPARK_HOME must point at a Spark distribution")
    return home


def build(digest, spark):
    if os.path.exists(STAMP) and open(STAMP).read().strip() == digest:
        return
    env = dict(os.environ, COURSIER_MODE="offline", SPARK_HOME=spark)
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.repository.config="
                   + os.path.expanduser("~/.sbt/repositories") + " -Dsbt.offline=true -Xmx2g")
    t0 = time.time()
    code, out = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile"], HERE, env,
                          BUILD_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (exit {code})")
    os.makedirs(TARGET, exist_ok=True)
    with open(STAMP, "w") as f:
        f.write(digest)
    print(f"# build {time.time() - t0:.1f} s", file=sys.stderr)


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def check_fingerprint(key, fp):
    """Same code and seed must give the same output fingerprint."""
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, "fingerprints.json")
    seen = json.load(open(path)) if os.path.exists(path) else {}
    if key in seen:
        return seen[key] == fp, seen[key]
    seen[key] = fp
    with open(path + ".tmp", "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True, fp


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    digest = source_hash()
    spark = spark_home()
    build(digest, spark)

    scratch = os.path.join(STATE, "run")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS")}
    env["SPARK_LOCAL_DIRS"] = os.path.join(scratch, "spark-local")
    jvm = [
        "java", f"-Xmx{HEAP}",
        "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
        f"-Dspark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')}",
        f"-Djava.io.tmpdir={tmp}",
        f"-Dperfbench.git_sha={git_sha()}", f"-Dperfbench.source_hash={digest}",
    ]
    if a.trace:
        jvm.append("-Dspark.callstack.depth=200")
    cmd = jvm + ["-cp", f"{CLASSES}:{spark}/jars/*", "repro.perfbench.Main",
                 "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                 "--trace", str(a.trace)]
    code, out = run_group(cmd, scratch, env, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n") if out else []
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out or "")
        fail(f"benchmark exited {code} without a result")
    result = json.loads(lines[-1])
    fp = next((l.split()[-1] for l in lines if l.startswith("# fingerprint ")), "")
    same, first = check_fingerprint(f"{digest}:{a.workload}:{a.seed}:{a.seconds}", fp)
    for l in lines[:-1]:
        print(l)
    if not same:
        print(f"# check fingerprint FAILED {fp} differs from {first} of an earlier run")
        result["failed"] += 1
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
