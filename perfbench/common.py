"""Shared plumbing for the benchmark workloads.

Everything here runs in the benchmark's own process or in the child
interpreters it starts; nothing is imported from ``src/`` at module load,
so ``run.py`` can refuse cleanly when the program is missing.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 150.0

FIG6_GAIN_RANGE = (0.318, 0.391)
"""EXPERIMENTS.md Fig. 6: every Table I design gains 31.8-39.1 % at 25 C."""
ENERGY_TARGET_FRACTION = 0.95
"""Energy cells close at 95 % of the design's worst-case clock, a target
every design reaches at nominal supply, so only real failures count."""


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program(cache_dir: Path) -> None:
    """Import the program from this checkout, with the flow cache at
    ``cache_dir`` (never the user's home cache)."""
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(cache_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def make_workdir(workload: str) -> Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other invocation is using it
    except OSError:
        pass


def run_child(argv: Sequence[str], env: Dict[str, str]) -> float:
    """Run a benchmark child interpreter to completion; wall seconds.

    The child's stderr passes through; a non-zero exit aborts the
    benchmark (a child that failed produced no trustworthy numbers).
    """
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], env=env, cwd=str(ROOT),
        stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(argv)} exited with {done.returncode}"
        )
    return elapsed


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], pct: int) -> float:
    """Inclusive-method percentile (``statistics.quantiles``)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def phase_totals(per_cell: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Sum ``JobResult.phase_seconds`` (sta/power/thermal) over cells."""
    totals: Dict[str, float] = {}
    for phases in per_cell:
        for phase, seconds in phases.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return totals


def routing_problems(flow) -> List[str]:
    """Legality of a routed flow, checked from outside the router."""
    graph = flow.routing.graph
    occupancy: Dict[int, int] = {}
    problems = []
    for net_id, net in flow.routing.routes.items():
        for path in net.sink_paths.values():
            for u, v in zip(path, path[1:]):
                if not any(edge.dst == v for edge in graph.out_edges[u]):
                    problems.append(f"net {net_id}: no RR edge {u}->{v}")
        for node in net.all_nodes():
            occupancy[node] = occupancy.get(node, 0) + 1
    for node, used in occupancy.items():
        if used > graph.nodes[node].capacity:
            problems.append(f"node {node} over capacity ({used})")
    return problems


# -- memory -------------------------------------------------------------------


def _kib_to_mb(kib: float) -> float:
    return kib / 1024.0


def own_peak_mb() -> float:
    """Peak RSS of this process."""
    return _kib_to_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def child_peak_mb() -> float:
    """Peak RSS of the largest child this process has waited for."""
    return _kib_to_mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def process_tree(pid: int) -> List[int]:
    """``pid`` and every live descendant, from ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat[stat.rindex(")") + 2:].split()
        parents[int(entry.name)] = int(fields[1])
    tree = [pid]
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in parents.items():
            if ppid == parent:
                tree.append(child)
                frontier.append(child)
    return tree


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return _kib_to_mb(float(line.split()[1]))
    except OSError:
        pass
    return 0.0


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def kill_all(pids: Iterable[int]) -> None:
    """SIGKILL each process and wait (up to 5 s) until none is alive."""
    pids = list(pids)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and any(map(alive, pids)):
        time.sleep(0.05)


# -- output checks --------------------------------------------------------------


class Checks:
    """Named output checks; each failure counts against ``failed``."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.n_checked = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.n_checked += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok


def environment() -> Dict[str, object]:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def wait_or_kill(proc: "subprocess.Popen[bytes]", timeout: float) -> Optional[int]:
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None
