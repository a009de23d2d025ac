"""Builds the programs under test from the checkout, and records the
machine context every result carries."""

import hashlib
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


class BenchError(Exception):
    """The run cannot produce a result (build failure, missing sources,
    a rejected open loop); run.py exits non-zero without printing one."""


def build_dir():
    # Automated runs name the build directory through CARGO_TARGET_DIR;
    # a relative name is taken inside the checkout.
    rel = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return rel if os.path.isabs(rel) else os.path.join(ROOT, rel)


def binaries():
    b = build_dir()
    return {"bench": os.path.join(b, "psd_bench"),
            "serve": os.path.join(b, "psd", "tools", "psd_serve"),
            "sweep": os.path.join(b, "psd", "tools", "psd_sweep")}


def ensure_built():
    """Configures (Release) and builds psd_bench, psd_serve and psd_sweep;
    an up-to-date tree rebuilds nothing."""
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no psd sources at %s (missing %s)" % (ROOT, need))
    b = build_dir()
    os.makedirs(b, exist_ok=True)
    log_path = os.path.join(b, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(b, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", b, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", b, "-j", jobs, "--target", "psd_bench",
                  "psd_serve_tool", "psd_sweep_tool"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return binaries()


def _cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _compiler():
    path = _cmake_cache("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([path, "--version"], capture_output=True, text=True)
        return out.stdout.splitlines()[0]
    except (OSError, IndexError):
        return path


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    """The git commit when the checkout is a repository, else a digest of
    the sources the build compiles."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def machine_context(seed):
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "build_type": _cmake_cache("CMAKE_BUILD_TYPE"), "compiler": _compiler(),
            "commit": _commit(), "seed": seed}
