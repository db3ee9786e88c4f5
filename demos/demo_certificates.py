"""Produce and verify explicit homotopy certificates.

Where the classifier says two functions are equivalent, the certificate
machinery backs the claim with a chain of one-parameter families (valid
points over k[T]) whose endpoints match up; the verifier re-checks every
step from scratch.
"""
import json

from p1h import GF, QQ, connect, normal_form_cert, parse_ratfun, verify
from p1h.certify import reverse_certificate
from p1h.expr import parse_ratfun_sum
from p1h.ratmap import eval_path
from p1h.serial import certificate_to_json


def main():
    F3 = GF(3)
    f = parse_ratfun("(X^2-1)/X", F3)
    g = parse_ratfun("(X^2+1)/(2*X+2)", F3)

    print("== normal form ==")
    units, cert = normal_form_cert(f)
    print(f"{f} reduces to the monomial sum with units {units}")
    for i, step in enumerate(cert.steps):
        print(f"   step {i}: {step}   [{eval_path(step,0)} ~> {eval_path(step,1)}]")
    print("   verifier says:", verify(cert))
    print()

    print("== connecting two equivalent functions ==")
    chain = connect(f, g)
    print(f"{f} ~ {g} via {len(chain.steps)} steps; verified: {verify(chain)}")
    print()

    print("== certificates survive reversal ==")
    rev = reverse_certificate(chain)
    print(f"reversed chain goes {rev.source} ~ {rev.target}; verified: {verify(rev)}")
    print()

    print("== the serialized form is what a third party re-checks ==")
    payload = certificate_to_json(chain)
    blob = json.dumps(payload, sort_keys=True)
    print(f"certificate JSON is {len(blob)} bytes; first 120: {blob[:120]}...")
    print()

    print("== over Q the diagonal chain is constructed at every degree ==")
    f4 = parse_ratfun_sum("X/-7+X/(1/2)+X/-1+X/13", QQ)
    g4 = parse_ratfun_sum("X/5+X/-1+X/2+X/(-91/20)", QQ)
    chain4 = connect(f4, g4)
    print(f"degree 4 over Q: {len(chain4.steps)} steps; verified: {verify(chain4)}")
    print()

    print("== a non-equivalence is reported with the differing invariant ==")
    print(connect(parse_ratfun("X/1", QQ), parse_ratfun("X/2", QQ)))


if __name__ == "__main__":
    main()
