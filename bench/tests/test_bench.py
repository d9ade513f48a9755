"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import check_output  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_request  # noqa: E402

CLI = run.import_lpacket()
WORKDIR = ROOT / ".bench_build" / f"bench-tests-{os.getpid()}"


@pytest.fixture(scope="module", autouse=True)
def _workdir():
    WORKDIR.mkdir(parents=True, exist_ok=True)
    yield
    shutil.rmtree(WORKDIR, ignore_errors=True)


def _flip(sign):
    return "-1" if sign == "+1" else "+1"


def _output(request):
    """Run one request in-process; return its stdout."""
    argv = list(request.args)
    if request.document is not None:
        path = WORKDIR / f"request-{request.index}.lpk"
        path.write_text(request.document, encoding="utf-8")
        argv = ["--input", str(path)] + argv
    code, out, err, _ = run.send(CLI, argv)
    assert code == 0, err
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = [make_request(workload, 7, k) for k in range(6)]
    second = [make_request(workload, 7, k) for k in range(6)]
    assert first == second
    other = [make_request(workload, 8, k) for k in range(6)]
    assert [r.args for r in other] != [r.args for r in first]


def test_labels_are_unique_to_a_request():
    def labels(request):
        out = set()
        for line in request.document.splitlines():
            words = line.split()
            if "dim" in words:
                out.add(words[words.index("dim") - 1].split("*")[0])
        return out

    seen = set()
    for k in range(10):
        mine = labels(make_request("ggp-tower", 3, k))
        assert mine and not (mine & seen)
        seen |= mine


def test_unflipped_outputs_pass_the_checks():
    for workload, index in (("ggp-tower", 28), ("theta-table", 0),
                            ("theta-table", 1), ("theta-table", 2)):
        request = make_request(workload, 0, index)
        problems, _, items = check_output(workload, request,
                                          _output(request))
        assert problems == [] and items > 0


def test_flipped_ggp_sign_is_a_failure():
    # request 28 is a small case-One tower (rank 20)
    request = make_request("ggp-tower", 0, 28)
    assert request.expected()["case"] == "One"
    payload = json.loads(_output(request))
    upper = payload["distinguished"]["upper"]
    upper["character"][0] = _flip(upper["character"][0])
    outcome = run.Outcome("ggp-tower", 0)
    outcome.record(request, 0, json.dumps(payload), "")
    assert outcome.failed == 1


@pytest.mark.parametrize("index,path", [
    (0, ("characters", 3, "target_+1", "character", 0)),   # up1
    (2, ("members", 5, "side")),                           # packet
])
def test_flipped_theta_sign_is_a_failure(index, path):
    request = make_request("theta-table", 0, index)
    payload = json.loads(_output(request))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _flip(node[path[-1]])
    outcome = run.Outcome("theta-table", 0)
    outcome.record(request, 0, json.dumps(payload), "")
    assert outcome.failed == 1


def test_flipped_up2_sign_fails_the_recorded_digest():
    # the form-exchange sign comes from the oracle: only the digest pins it
    seed = run.load_digests()["seed"]
    request = make_request("theta-table", seed, 1)
    payload = json.loads(_output(request))
    row = payload["characters"][0]
    row["form_exchange_sign"] = _flip(row["form_exchange_sign"])
    problems, _, _ = check_output("theta-table", request, json.dumps(payload))
    assert problems == []
    outcome = run.Outcome("theta-table", seed)
    outcome.record(request, 0, json.dumps(payload), "")
    assert outcome.failed == 1


def test_failing_suite_report_is_a_failure():
    request = make_request("verify", 0, 0)
    payload = json.loads(_output(request))
    payload["all_pass"] = False
    outcome = run.Outcome("verify", 0)
    outcome.record(request, 0, json.dumps(payload), "")
    assert outcome.failed == 1


def _traced_counts(requests):
    tracer = Tracer()
    tracer.install()
    try:
        outputs = []
        for request in requests:
            outputs.append(_output(request))
            tracer.end_request()
    finally:
        tracer.uninstall()
    counts = {name: value for name, (value, unit) in tracer.metrics().items()
              if unit != "s"}
    return counts, outputs


def test_counters_repeat_and_stdout_is_unchanged():
    requests = [make_request("theta-table", 0, k) for k in range(3)]
    requests += [make_request("ggp-tower", 0, 28)]
    plain = [_output(r) for r in requests]
    first, traced_out = _traced_counts(requests)
    second, _ = _traced_counts(requests)
    assert first == second
    assert traced_out == plain
    assert first["epsilon.oracle.consultations"] > 0
    assert first["params.mk_parameter.calls"] > 0


def test_uninstall_restores_every_original():
    import lpacket.cli
    import lpacket.recipe

    before = (lpacket.cli.main_multiplicity, lpacket.recipe.CharE.__mul__)
    tracer = Tracer()
    tracer.install()
    assert lpacket.cli.main_multiplicity is not before[0]
    tracer.uninstall()
    assert (lpacket.cli.main_multiplicity,
            lpacket.recipe.CharE.__mul__) == before


def test_counters_repeat_across_processes():
    script = (
        "import json, sys; from pathlib import Path; import run; "
        "run.TRACE_REQUESTS['theta-table'] = 3; "
        "_, metrics = run.traced('theta-table', 0, Path(sys.argv[1])); "
        "print(json.dumps({k: v for k, (v, u) in metrics.items() "
        "if u != 's' and k != 'trace.overhead_ratio'}))"
    )
    results = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        done = subprocess.run(
            [sys.executable, "-c", script, str(WORKDIR / hashseed)],
            cwd=BENCH, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert results[0] == results[1]


def test_refuses_to_run_without_the_program():
    bare = WORKDIR / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
