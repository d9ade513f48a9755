"""End-to-end branching computation on the basic rank-3 fixture.

Lifts a supercuspidal-packet parameter two ranks up, recovers the lower
parameter behind a tempered rank-4 parameter, evaluates the closed-form
distinguished pair, and checks it against the independent see-saw
transport, printing the transport trace.
"""

from lpacket.dsl import parse
from lpacket.epsilon import HashedBackend
from lpacket.recipe import GGPContext, main_multiplicity
from lpacket.seesaw import seesaw_pairs
from lpacket.theta import theta_up2_param

DOC = """
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


def describe(member, label):
    values = ", ".join(f"{v:+d}" for v in member.character.values)
    print(f"  {label}: character ({values}) on form {member.side:+d}")
    print(f"    parameter {member.parameter}")


def main():
    doc = parse(DOC)
    gctx = GGPContext.standard(doc.n, doc.base)
    phi1 = doc.parameter("phi1")
    phi = doc.parameter("phi")
    backend = HashedBackend(42)

    lifted = theta_up2_param(phi1, gctx.up2_primary())
    print(f"upper parameter (codim-2 lift of phi1): {lifted}")

    report = main_multiplicity(phi1, phi, gctx, backend)
    print(f"\ntrichotomy case: {report.case}")
    print(f"recovered lower parameter: {report.recovered_phi2}")
    upper, lower = report.distinguished
    print("closed-form distinguished pair:")
    describe(upper, "upper")
    describe(lower, "lower")

    result = seesaw_pairs(phi1, phi, gctx, backend)
    t_upper, t_lower = result.pairs[0]
    print("\nsee-saw transport reproduces the pair:",
          (t_upper, t_lower) == (upper, lower))
    print("transport trace:")
    for step, payload in result.trace.steps:
        print(f"  {step}: {payload}")
    calls = result.trace.oracle_calls
    print(f"oracle consultations: {sum(count for _, _, count in calls)} "
          f"over {len(calls)} distinct keys")


if __name__ == "__main__":
    main()
