#!/usr/bin/env python3
"""Build and run the DSLog benchmark.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The first run compiles the program
(src/main/scala) and the benchmark (perfbench/src) with the Scala compiler
that ships in the Spark distribution, into .bench_build/perfbench; later
runs reuse the classes while the sources are unchanged. The last line of
standard output is the result object; see perfbench/README.md.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
def spark_home():
    """$SPARK_HOME, else the distribution whose spark-submit is on the PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = os.path.dirname(os.path.abspath(d))
        if os.path.isfile(os.path.join(d, "spark-submit")) and os.path.isdir(os.path.join(home, "jars")):
            return home
    return ""


SPARK_JARS = os.path.join(spark_home(), "jars")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
PROGRAM_RES = os.path.join(ROOT, "src", "main", "resources")
BENCH_SRC = os.path.join(HERE, "src")
WORKLOADS = ("ingest", "query_wide")
RUN_TIMEOUT_S = 170
# Spark on Java 17 needs these packages opened to the unnamed module.
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sources():
    files = []
    for base in (PROGRAM_SRC, BENCH_SRC):
        files += glob.glob(os.path.join(base, "**", "*.scala"), recursive=True)
    return sorted(files)


def source_hash(files):
    h = hashlib.sha256()
    for f in files + sorted(glob.glob(os.path.join(PROGRAM_RES, "**", "*"), recursive=True)):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    """Compile into BUILD/classes unless the stamp matches the sources."""
    if not os.path.isdir(PROGRAM_SRC):
        fail("program sources not found at src/main/scala; run from a full checkout")
    if not glob.glob(os.path.join(SPARK_JARS, "scala-compiler-*.jar")):
        fail("no Spark distribution with a Scala compiler found (set SPARK_HOME)")
    files = sources()
    digest = source_hash(files)
    classes = os.path.join(BUILD, "classes")
    stamp = os.path.join(classes, ".stamp")
    if os.path.exists(stamp) and open(stamp).read() == digest:
        return classes, digest
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.path.join(SPARK_JARS, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + files
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if res.returncode != 0:
        fail("compilation failed")
    if os.path.isdir(PROGRAM_RES):
        shutil.copytree(PROGRAM_RES, tmp, dirs_exist_ok=True)
    with open(os.path.join(tmp, ".stamp"), "w") as fh:
        fh.write(digest)
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    return classes, digest


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", default="1", help="input size factor (the smoke test uses a small one)")
    a = ap.parse_args()

    classes, digest = build()
    out = os.path.join(BUILD, "results")
    os.makedirs(out, exist_ok=True)
    tmpdir = os.path.join(BUILD, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    # A fixed-size heap and young generation keep collections alike from run
    # to run: with G1's adaptive young sizing the op catalog ran at half speed
    # for the first several seconds, for a different time in each JVM.
    cmd = (["java", "-Xms3g", "-Xmx3g", "-Xmn1g", "-Xss8m", "-Djava.io.tmpdir=" + tmpdir,
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")]
           + JAVA_OPENS
           + ["-cp", classes + os.pathsep + os.path.join(SPARK_JARS, "*"),
              "repro.perfbench.Main",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", a.trace, "--scale", a.scale, "--out", out,
              "--sha", git_sha(), "--source-hash", digest])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
