package solve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"semimatch/internal/cert"
)

// singleProcCertificateDigest is the SHA-256 over the certificate lines
// of TestSingleProcCertificateGolden: per result the solver, witness
// kind, verified tier, lower bounds and makespan, then Verify's verdict
// on the result re-claimed with a packing, a matching and an exhaustive
// witness. Exhaustive node counts are left out.
const singleProcCertificateDigest = "bff6ee709bf905c4540a0b684ea2cd0215ee01513df8116c0e3e2d1a8d1f1574"

// TestSingleProcCertificateGolden solves seeded unit and weighted
// SINGLEPROC graphs through Run at one worker — the auto policy, basic
// and LPT — and pins what their certificates claim and verify to.
func TestSingleProcCertificateGolden(t *testing.T) {
	sum := sha256.New()
	lines := 0
	for seed := int64(1); seed <= 100; seed++ {
		for _, maxW := range []int64{1, 9} {
			n, p := 3+int(seed%12), 2+int(seed%4)
			prob := Bipartite(weightedGraph(seed, n, p, 3, maxW))
			for _, alg := range []string{"", "basic", "LPT"} {
				rep, err := Run(context.Background(), prob, WithWorkers(1), WithAlgorithm(alg), WithVerify())
				if err != nil {
					t.Fatalf("seed %d maxW %d alg %q: %v", seed, maxW, alg, err)
				}
				c := rep.Certificate
				fmt.Fprintf(sum, "%d %d %q %s %s %s %d %d %d\n", seed, maxW, alg, rep.Solver,
					c.Witness.Kind, rep.Trust, rep.LowerBound, c.LowerBound, c.Makespan)
				for _, kind := range []cert.WitnessKind{cert.WitnessPacking, cert.WitnessMatching, cert.WitnessExhaustive} {
					forged := *c
					forged.Witness = cert.Witness{Kind: kind}
					forged.LowerBound = forged.Makespan
					tier, err := cert.Verify(prob.Graph(), &forged)
					fmt.Fprintf(sum, "  %s: %s %v\n", kind, tier, err)
				}
				lines++
			}
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != singleProcCertificateDigest {
		t.Fatalf("SINGLEPROC certificate digest over %d results = %s, want %s", lines, got, singleProcCertificateDigest)
	}
}
