"""Count the bytecode an lpacket run executes, per module and per function.

    python3 tools/opcount.py --workload ggp-tower --seed 0
    python3 tools/opcount.py -- --input doc.lpk ggp phi1 phi [-- ARGS ...]

The first form runs one period of a benchmark workload: the requests
``bench/workloads.py`` makes for indices ``0 .. PERIOD - 1`` (that file is
imported and never written).  The second runs ``lpacket`` command lines,
each after a ``--``, in order.  Either target runs once to warm imports
and caches, then once under ``sys.settrace`` with ``frame.f_trace_opcodes``
on, counting every opcode a Python frame executes by its code object.
Stdout and stderr of the runs are discarded.

Counts are exact and repeat from run to run, unlike wall time, so two
trees can be compared layer by layer.  They count Python-level work
only: a call into C is one op, whatever it costs.  Dict collisions call
generated ``__eq__`` methods, so the count depends on the hash seed: the
script re-runs itself in a child process with ``PYTHONHASHSEED=0``
unless that is already set.  The counts hold for one CPython version,
which the output records.

Prints one JSON object: ``python`` (``sys.version``), ``target``,
``exit_codes`` (per command run), ``total``, and the op counts by
``modules`` and by ``functions`` (``module:qualname``), largest first.
Code with no module file (dataclass-generated methods) is filed under
its code's file name, ``<string>``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"


def count_ops(run):
    """Call ``run()`` with every new Python frame tracing opcodes; return
    its result and the op count of each code object executed."""
    counts = defaultdict(int)

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, counts


def _module_names():
    """Source file -> module name, over every module imported."""
    names = {}
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if path:
            names.setdefault(os.path.realpath(path), name)
    return names


def summarize(counts):
    """Op counts by module and by ``module:qualname``, largest first."""
    names = _module_names()
    modules = defaultdict(int)
    functions = defaultdict(int)
    for code, ops in counts.items():
        path = code.co_filename
        module = names.get(os.path.realpath(path), path)
        qualname = getattr(code, "co_qualname", code.co_name)
        modules[module] += ops
        functions[f"{module}:{qualname}"] += ops

    def ranked(table):
        return dict(sorted(table.items(), key=lambda kv: (-kv[1], kv[0])))

    return ranked(modules), ranked(functions)


def _workload_argvs(workload, seed, folder):
    """The CLI argument lists of one period of ``workload``, with their
    documents written under ``folder``."""
    sys.path.insert(0, str(BENCH))
    # bench/ is read, never written: no bytecode cache goes there
    sys.dont_write_bytecode, keep = True, sys.dont_write_bytecode
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = keep
        sys.path.remove(str(BENCH))
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; choose "
                         f"from {', '.join(workloads.WORKLOADS)}")
    argvs = []
    for index in range(workloads.PERIOD[workload]):
        request = workloads.make_request(workload, seed, index)
        argv = list(request.args)
        if request.document is not None:
            path = Path(folder) / f"request-{index}.lpk"
            path.write_text(request.document)
            argv = ["--input", str(path)] + argv
        argvs.append(argv)
    return argvs


def measure(argvs):
    """Run each command line once to warm up, then count the ops of
    running them all again."""
    from lpacket.cli import main

    def run():
        return [main(argv) for argv in argvs]

    with open(os.devnull, "w") as sink, redirect_stdout(sink), \
            redirect_stderr(sink):
        run()
        gc.collect()
        codes, counts = count_ops(run)
    modules, functions = summarize(counts)
    return {"exit_codes": codes, "total": sum(modules.values()),
            "modules": modules, "functions": functions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opcount.py",
        description="Count executed bytecode per module and function for "
                    "one workload period or lpacket command lines.")
    parser.add_argument("--workload",
                        help="a bench/workloads.py workload name")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="lpacket command lines, each after --")
    args = parser.parse_args(argv)
    commands = []
    for word in args.argv:
        if word == "--":
            commands.append([])
        elif commands:
            commands[-1].append(word)
        else:
            parser.error(f"unrecognized argument {word!r} (put lpacket "
                         f"arguments after --)")
    if (args.workload is None) == (not commands):
        parser.error("give either --workload NAME or -- LPACKET-ARGS")

    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        child = [sys.executable, str(Path(__file__).resolve()),
                 *(sys.argv[1:] if argv is None else argv)]
        return subprocess.run(child, env=env).returncode

    sys.path.insert(0, str(SRC))
    if args.workload is None:
        target = {"argvs": commands}
        report = measure(commands)
    else:
        target = {"workload": args.workload, "seed": args.seed}
        with tempfile.TemporaryDirectory() as folder:
            report = measure(_workload_argvs(args.workload, args.seed,
                                             folder))
    print(json.dumps({"python": sys.version, "target": target, **report},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
