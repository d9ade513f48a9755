"""lpacket benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload ggp-tower --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  The benchmark imports
``lpacket`` from ``src/`` of that checkout (and refuses to run without
it), writes the workload's seeded input documents under
``.bench_build/``, and sends requests as in-process calls of
``lpacket.cli.main(argv)``, one after another, capturing stdout.  Every
output is checked outside the timed region (see ``checks.py``).

``--trace 0`` times whole periods of the workload's request schedule,
for at least ``--seconds`` seconds of request time and at least
``MIN_REQUESTS`` requests, and reports the end-to-end metrics.  ``--trace 1`` runs a fixed request set twice, plain
and with every module wrapped (see ``tracing.py``), checks that both print
the same bytes, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the run
completed (check ``correct``); 2 means it could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import hostspeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import PERIOD, WORKLOADS, Request, make_request  # noqa: E402

# set-up is repeated and its median reported
SETUP_REPEATS = 5
# requests generated and written during set-up; later ones are written
# between requests, outside the timed region
POOL_REQUESTS = 40
# enough requests that at least ten lie beyond p90
MIN_REQUESTS = 110
# a run stops early past this much wall time, to end within the time limit
MAX_WALL_S = 120.0
# fixed request sets of the traced run, sized for a few seconds of work
TRACE_REQUESTS = {"ggp-tower": 42, "theta-table": 15, "verify": 24}
# the first requests of a run, whose sign digests expected_digests.json
# records for one seed
DIGEST_REQUESTS = 12
# a request index outside any run's range: the untimed warm-up request
WARMUP_INDEX = 10 ** 6


class SetupError(Exception):
    """The checkout holds no importable lpacket package."""


def import_lpacket():
    """Import ``lpacket`` and its CLI afresh from the checkout's ``src``."""
    if not (SRC / "lpacket" / "__init__.py").is_file():
        raise SetupError(f"no lpacket package under {SRC}")
    for name in [m for m in sys.modules
                 if m == "lpacket" or m.startswith("lpacket.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    try:
        package = importlib.import_module("lpacket")
        cli = importlib.import_module("lpacket.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import lpacket: {exc}") from exc
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise SetupError(f"lpacket was imported from {package.__file__}")
    return cli


class Inputs:
    """The workload's requests, with documents written under ``directory``."""

    def __init__(self, workload: str, seed: int, directory: Path):
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.directory.mkdir(parents=True, exist_ok=True)
        self._made: Dict[int, Tuple[Request, List[str]]] = {}

    def get(self, index: int) -> Tuple[Request, List[str]]:
        if index not in self._made:
            request = make_request(self.workload, self.seed, index)
            argv = list(request.args)
            if request.document is not None:
                path = self.directory / f"request-{index:07d}.lpk"
                path.write_text(request.document, encoding="utf-8")
                argv = ["--input", str(path)] + argv
            self._made[index] = (request, argv)
        return self._made[index]


def set_up(workload: str, seed: int, directory: Path, count: int):
    """Import lpacket, then generate and write the first ``count`` inputs."""
    shutil.rmtree(directory, ignore_errors=True)
    cli = import_lpacket()
    inputs = Inputs(workload, seed, directory)
    for index in range(count):
        inputs.get(index)
    return cli, inputs


def send(cli, argv: List[str]) -> Tuple[Optional[int], str, str, float]:
    """One request: exit code (None on an exception), stdout, stderr and
    latency in seconds."""
    out, err = io.StringIO(), io.StringIO()
    code: Optional[int]
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed request, not a dead run
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    latency = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), latency


def timed_send(cli, argv: List[str]):
    """``send``, with the latency rescaled to full host speed."""
    before = hostspeed.kernel_seconds()
    code, out, err, wall = send(cli, argv)
    after = hostspeed.kernel_seconds()
    return code, out, err, hostspeed.rescale(wall, before, after)


def load_digests() -> Dict:
    """The recorded sign digests: the seed, and a list per workload."""
    with open(BENCH_DIR / "expected_digests.json", encoding="utf-8") as handle:
        return json.load(handle)


class Outcome:
    """Checks every output and counts failures and work items."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.digests: List[str] = []
        expected = load_digests()
        self.expected_digests = (expected[workload]
                                 if seed == expected["seed"] else None)

    def record(self, request: Request, code: Optional[int], out: str,
               err: str) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {err.strip()[:300]}"]
            sign, items = (), 0
        else:
            problems, sign, items = checks.check_output(
                self.workload, request, out)
        if request.index < DIGEST_REQUESTS:
            digest = checks.sign_digest(sign)
            self.digests.append(digest)
            if (self.expected_digests is not None
                    and digest != self.expected_digests[request.index]):
                problems.append("sign digest differs from the recorded one")
        self.items += items
        if problems:
            self.failed += 1
            print(f"request {request.index} failed: {problems[:3]}",
                  file=sys.stderr)


def run_timed(cli, inputs: Inputs, outcome: Outcome, seconds: float):
    """Closed loop: the next request is sent when the previous one is done.

    The loop runs whole periods of the workload's schedule until the
    requests took ``seconds`` in all and number at least MIN_REQUESTS."""
    period = PERIOD[inputs.workload]
    latencies: List[float] = []
    busy = 0.0
    start = perf_counter()
    index = 0
    while ((busy < seconds or index < MIN_REQUESTS or index % period)
           and perf_counter() - start < MAX_WALL_S):
        request, argv = inputs.get(index)
        gc.collect()
        code, out, err, latency = timed_send(cli, argv)
        latencies.append(latency)
        busy += latency
        outcome.record(request, code, out, err)
        index += 1
    return latencies, busy


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(workload: str, seed: int, seconds: float, directory: Path):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.kernel_seconds()
        start = perf_counter()
        cli, inputs = set_up(workload, seed, directory, POOL_REQUESTS)
        wall = perf_counter() - start
        after = hostspeed.kernel_seconds()
        setup_times.append(hostspeed.rescale(wall, before, after))

    _, warm_argv = inputs.get(WARMUP_INDEX)
    send(cli, warm_argv)

    outcome = Outcome(workload, seed)
    latencies, busy = run_timed(cli, inputs, outcome, seconds)
    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8]
    beyond = sum(1 for v in latencies if v > p90)
    print(f"{workload} seed {seed}: {n} requests, {busy:.2f} s of request "
          f"time at full host speed, {beyond} samples beyond p90, "
          f"{outcome.items} items, {outcome.failed} failed")
    print(f"sign digests of the first {DIGEST_REQUESTS} requests: "
          f"{json.dumps(outcome.digests)}")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "req_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "req_p90_ms": (p90 * 1000, "ms"),
        "items_per_s": (outcome.items / busy, "1/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    return outcome, metrics


def traced(workload: str, seed: int, directory: Path):
    count = TRACE_REQUESTS[workload]
    cli, inputs = set_up(workload, seed, directory, count)
    _, warm_argv = inputs.get(WARMUP_INDEX)
    send(cli, warm_argv)

    outcome = Outcome(workload, seed)
    plain: List[str] = []
    plain_s = 0.0
    for index in range(count):
        request, argv = inputs.get(index)
        gc.collect()
        code, out, err, latency = timed_send(cli, argv)
        plain_s += latency
        plain.append(out)
        outcome.record(request, code, out, err)

    tracer = Tracer()
    tracer.install()
    traced_s = 0.0
    bytes_out = 0
    try:
        for index in range(count):
            request, argv = inputs.get(index)
            gc.collect()
            code, out, err, latency = timed_send(cli, argv)
            tracer.end_request()
            traced_s += latency
            bytes_out += len(out.encode("utf-8"))
            if out != plain[index]:
                outcome.failed += 1
                print(f"request {index}: traced stdout differs from the "
                      "untraced stdout", file=sys.stderr)
    finally:
        tracer.uninstall()

    print(f"{workload} seed {seed}: traced {count} requests, "
          f"{plain_s:.2f} s untraced, {traced_s:.2f} s traced")
    metrics = tracer.metrics()
    metrics["serialize.bytes_out"] = (bytes_out, "bytes")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    directory = (ROOT / ".bench_build" / "lpacket-bench"
                 / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            outcome, metrics = traced(args.workload, args.seed, directory)
        else:
            outcome, metrics = untraced(args.workload, args.seed,
                                        args.seconds, directory)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
