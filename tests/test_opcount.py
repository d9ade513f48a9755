"""tools/opcount.py: executed-bytecode counts repeat exactly."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "opcount.py"

DOCUMENT = """
base { omega_minus_one = -1; n = 3; identify_chi = false; }
param phi1 on U(W,3,+) supercuspidal {
  A dim 1 sign + tempered sl2triv;
  B dim 2 sign + tempered sl2triv;
}
param phi on U(V,4,-) tempered {
  char chi_W;
  C*chi_V^-1*chi*chi_W dim 3 sign + tempered sl2triv;
}
"""


def test_two_runs_count_the_same_ops(tmp_path):
    doc = tmp_path / "doc.lpk"
    doc.write_text(DOCUMENT)
    commands = [["packet", "phi1"], ["theta", "up1", "phi1"],
                ["theta", "up2", "phi1"], ["ggp", "phi1", "phi"]]
    argv = [str(TOOL)]
    for command in commands:
        argv += ["--", "--input", str(doc), *command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    # one run starts its own PYTHONHASHSEED=0 child, the other is one
    runs = [subprocess.Popen([sys.executable, *argv], env=child_env,
                             stdout=subprocess.PIPE, text=True)
            for child_env in (env, dict(env, PYTHONHASHSEED="0"))]
    outs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(out) for out in outs)
    assert first == second
    assert first["python"] == sys.version
    assert first["exit_codes"] == [0] * len(commands)
    # every layer the commands go through is counted, and sums to the total
    assert {"lpacket.dsl", "lpacket.epsilon", "lpacket.theta",
            "lpacket.recipe", "lpacket.serialize"} <= set(first["modules"])
    assert sum(first["modules"].values()) == first["total"]
    assert sum(first["functions"].values()) == first["total"]
