#!/usr/bin/env python3
"""Build file of the why-not benchmark.

Compiles the program (``src/main/scala`` and ``jobs`` of the checkout) together
with the benchmark's own sources (``perfbench/src``) using the Scala compiler that
ships in Spark's jar directory, into ``<build dir>/classes``. The build is
skipped when a digest of the sources and of the Spark jar listing matches
the one stored beside the classes.

    python3 perfbench/build.py            # build into $CARGO_TARGET_DIR or .bench_build
"""
import hashlib
import os
import re
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(ROOT, "jobs"),
               os.path.join(BENCH, "src")]


def spark_jars():
    """The Spark jar directory the repository's own build compiles against
    (``unmanagedBase`` in build.sbt), else ``$SPARK_HOME/jars``."""
    with open(os.path.join(ROOT, "build.sbt")) as fh:
        m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', fh.read())
    if m:
        return m.group(1)
    if "SPARK_HOME" in os.environ:
        return os.path.join(os.environ["SPARK_HOME"], "jars")
    raise SystemExit("perfbench: no Spark jar directory in build.sbt and SPARK_HOME is not set")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def sources():
    """Every Scala source to compile; fails if the program is not there."""
    missing = [d for d in SOURCE_DIRS[:2] if not os.path.isdir(d)]
    if missing:
        raise SystemExit("perfbench: program sources not found: " + ", ".join(missing))
    files = []
    for d in SOURCE_DIRS:
        for dirpath, _, names in os.walk(d):
            files += [os.path.join(dirpath, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    h.update("\n".join(sorted(os.listdir(spark_jars()))).encode())
    return h.hexdigest()


def build():
    """Compile if needed; return (classes dir, source digest)."""
    files = sources()
    d = digest(files)
    out = os.path.join(build_dir(), "classes")
    stamp = os.path.join(build_dir(), "classes.digest")
    if os.path.isdir(out) and os.path.exists(stamp) and open(stamp).read() == d:
        return out, d
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss4m", "-Xmx2g", "-cp", os.path.join(spark_jars(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + files
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise SystemExit(f"perfbench: compilation failed ({r.returncode})")
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    with open(stamp, "w") as fh:
        fh.write(d)
    return out, d


if __name__ == "__main__":
    print(build()[0])
