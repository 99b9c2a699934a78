#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload {discover,fulljoin} \
        --seed N --seconds S --trace {0,1}

Builds the program's sources (src/main) together with the harness
(perfbench/src) with sbt when they changed since the last build, then runs one
workload in a fresh JVM. The JVM's last line of standard output is the result
JSON. Everything the build and the run write stays under perfbench/.build and
perfbench/out.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(HERE, ".build")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("discover", "fulljoin")
HEAP = "3g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# C1 only. In a fresh JVM, C2 keeps recompiling Spark's planner and each
# query's generated code for well over a minute, at several seconds of CPU per
# operation on other threads, so operation times drift by a third through any
# run that fits the time limit. With C1 the second operation is already as
# fast as the later ones. Hot loops such as the k-NN estimators run slower
# than under C2, for the parent and a change alike.
JIT = ["-XX:TieredStopAtLevel=1"]

# Module access Spark needs on Java 17; the same list spark-submit passes.
JAVA_OPENS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    """The files whose content decides whether to rebuild."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not os.path.isdir(jars):
        fail("no Spark distribution found (set SPARK_HOME or put spark-submit on PATH)")
    return jars


def run_child(cmd, timeout, **kw):
    """Run a command in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(stamp):
    """Compile with sbt and record the runtime classpath; skipped when fresh."""
    cp_file = os.path.join(BUILD_DIR, "classpath.txt")
    stamp_file = os.path.join(BUILD_DIR, "stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                return cp_file
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt not found on PATH")
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.global.base=" + os.path.join(BUILD_DIR, "sbt-global"),
           "-Djava.io.tmpdir=" + tmp,
           "-Dperfbench.sparkJars=" + spark_jars(),
           "-Dperfbench.buildDir=" + BUILD_DIR,
           "-J-Xmx2g", "writeClasspath"]
    t0 = time.time()
    try:
        code = run_child(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if code != 0 or not os.path.exists(cp_file):
        fail("build failed (sbt exit %d)" % code, 3)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    print("perfbench: built in %.1f s" % (time.time() - t0), file=sys.stderr)
    return cp_file


def main():
    # A terminated run still stops the JVM: run_child kills its process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("the program's sources (build.sbt, src/main/scala) are not beside perfbench/")
    files = source_files()
    stamp = source_hash(files)
    cp_file = build(stamp)
    with open(cp_file) as fh:
        classpath = fh.read().strip()

    work = os.path.join(BUILD_DIR, "run")
    tmp = os.path.join(work, "tmp")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(tmp)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") \
        else shutil.which("java")
    cmd = [java, "-Xmx" + HEAP, "-Djava.io.tmpdir=" + tmp, "-Dspark.ui.enabled=false"] + JIT + JAVA_OPENS + [
        "-cp", classpath, "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", work, "--out", OUT_DIR,
        "--sha", git_sha(), "--source-hash", stamp]
    try:
        code = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
