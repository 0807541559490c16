#!/usr/bin/env python3
"""Why-not benchmark: explains a fixed set of why-not questions end to end.

    python3 perfbench/run.py --workload <tpch-many-sa|tpch-data|nested-few-sa>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the program from source if needed
(see build.py), starts one JVM running Spark on local[min(4, nproc)],
and relays its output. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the details behind the metrics. ``--trace 1``
also writes the spans and the per-question table to
``<build dir>/out/trace-<workload>-seed<n>.json``.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

import build

TIMEOUT_S = 170
HEAP = "3g"
JAVA_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def source_commit():
    try:
        r = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = p.parse_args()

    classes, digest = build.build()
    work = build.build_dir()
    scratch = os.path.join(work, "run-%d" % os.getpid())
    os.makedirs(os.path.join(scratch, "tmp"), exist_ok=True)
    cmd = (["java", "-Xms" + HEAP, "-Xmx" + HEAP] + JAVA_OPTS + [
        "-Dspark.driver.host=127.0.0.1",
        "-Dspark.local.dir=" + os.path.join(scratch, "spark-local"),
        "-Dspark.sql.warehouse.dir=" + os.path.join(scratch, "warehouse"),
        "-Djava.io.tmpdir=" + os.path.join(scratch, "tmp"),
        "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH, "log4j2.properties"),
        "-Dperfbench.commit=" + source_commit(),
        "-Dperfbench.digest=" + digest,
        "-cp", classes + os.pathsep + os.path.join(build.spark_jars(), "*"),
        "repro.perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out", os.path.join(work, "out")])

    proc = subprocess.Popen(cmd, cwd=scratch, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: benchmark JVM exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    print("\n".join(lines))


if __name__ == "__main__":
    main()
