"""Shared machinery of the lglab benchmark: paths, spans, statistics,
child processes and the environment stamp.

Nothing here imports lglab, so the harness can report a missing source tree
instead of crashing on import.
"""
from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Temporary files and written-out traces stay inside the checkout.
OUT_DIR = ROOT / ".bench_out"


def child_env() -> dict:
    """Environment for lglab child processes: the checkout's src first."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


# -- spans -------------------------------------------------------------------


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span around each layer call, kept in memory until written.

    A disabled tracer records nothing, so the untraced runs that give the
    end-to-end metrics pay only for an empty context manager per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        if not self.enabled:
            yield None
            return
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, op, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "op": s.op, "parent": s.parent, "start": s.start, "end": s.end, "self": t}
            for s, t in zip(self.spans, self.self_times())
        ]


# -- statistics ----------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: int) -> Optional[float]:
    """The q-th percentile, or None when fewer than 10 samples lie beyond it."""
    values = sorted(values)
    if len(values) * (100 - q) < 1000:
        return None
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def timing_summary(values, unit_scale: float = 1.0) -> dict:
    """Median, p90 when it has 10 samples beyond it, and the sample count."""
    scaled = [v * unit_scale for v in values]
    out = {"median": median(scaled), "n": len(scaled)}
    p90 = percentile(scaled, 90)
    if p90 is not None:
        out["p90"] = p90
    return out


# -- machine pace ----------------------------------------------------------------

# The reference loop's wall time at the uncontended speed of the 2-vCPU Xeon
# host the baseline was recorded on.
REFERENCE_NOMINAL_S = 0.040
_M = np.uint64(0x5851F42D4C957F2D)


def reference_loop() -> float:
    """Wall seconds of a fixed loop, half string formatting in Python and
    half uint64 array arithmetic, like lglab's own mix; it runs no lglab code."""
    t0 = time.perf_counter()
    "\n".join([f"{i},{i % 3},{1 - 2 * (i & 1)},,quantum" for i in range(50_000)])
    a = np.arange(1 << 20, dtype=np.uint64)
    for _ in range(8):
        a *= _M
        a ^= a >> np.uint64(29)
    return time.perf_counter() - t0


class Pace:
    """Scales wall times to the reference speed of the machine.

    On a shared host the same command can take 1.7 s or 2.9 s a minute
    apart, as neighbours come and go. The reference loop slows in the same
    phases, so each block of ops is timed between two reference readings and
    its wall time is scaled by nominal / (mean of the two readings). Over
    five seeds this cut the spread of the median `lglab run` from 20% to 5%.
    """

    # Readings per side of a block; one reading alone varies by 15%.
    READS = 3

    def __init__(self):
        self._last = self._read()

    def _read(self) -> float:
        return statistics.fmean(reference_loop() for _ in range(self.READS))

    def factor(self) -> float:
        """Scale for the block of ops timed since the previous call."""
        before, self._last = self._last, self._read()
        return REFERENCE_NOMINAL_S / ((before + self._last) / 2.0)


# -- child processes -----------------------------------------------------------


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], out_path: Path, err_path: Path) -> ChildResult:
    """Run one child to completion; its peak RSS comes from wait4, per child."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def setup_samples(work_dir: Path, n: int, pace: Pace) -> list[tuple[float, float]]:
    """(wall, paced) seconds of fresh interpreters doing `import lglab.cli`.

    One discarded warm-up first, so byte-code compilation, which an installed
    package has already done, is not counted.
    """
    argv = [sys.executable, "-c", "import lglab.cli"]
    out, err = work_dir / "setup.out", work_dir / "setup.err"
    samples = []
    for k in range(n + 1):
        res = run_child(argv, out, err)
        if res.returncode != 0:
            raise RuntimeError(f"import lglab.cli failed: {res.stderr.decode(errors='replace')[-500:]}")
        factor = pace.factor()
        if k:
            samples.append((res.wall_s, res.wall_s * factor))
    return samples


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- environment stamp -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _git_commit() -> Optional[str]:
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when the checkout is a plain copy of the tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lglab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment_stamp(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (1 << 20),
        "lglab_commit": _git_commit(),
        "lglab_src_sha256": _src_digest(),
        "seed": seed,
    }
