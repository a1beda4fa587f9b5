package main

import (
	"context"
	"slices"
	"testing"

	"semimatch/internal/cert"
	"semimatch/internal/core"
	"semimatch/internal/gen"
	"semimatch/internal/service"
	"semimatch/internal/solve"
)

// TestRefineMatchesService: semisolve -refine answers a hypergraph file as
// the service does, in the file's hyperedge numbering. Refinement depends
// on hyperedge order and the service solves the canonical form; solved in
// file order, this instance refines to a worse makespan.
func TestRefineMatchesService(t *testing.T) {
	ctx := context.Background()
	h, err := gen.Hypergraph(gen.HyperParams{
		Gen: gen.FewgManyg, N: 40, P: 6, Dv: 3, Dh: 2, G: 3,
		Weights: gen.Random, MaxW: 9,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := service.New(service.Options{Refine: true}).Solve(ctx, h, "")
	if err != nil {
		t.Fatal(err)
	}
	fileOrder, err := solve.Run(ctx, solve.Hyper(h), solve.WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	if fileOrder.Makespan == want.Makespan {
		t.Fatalf("file order and canonical form both refine to %d; pick an instance that tells them apart", want.Makespan)
	}
	got, err := solveCanonical(ctx, solve.Hyper(h), solve.WithRefine(), solve.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("semisolve -refine makespan %d, service %d", got.Makespan, want.Makespan)
	}
	a := core.HyperAssignment(got.Assignment)
	if err := core.ValidateHyperAssignment(h, a); err != nil {
		t.Fatalf("assignment not in the file's numbering: %v", err)
	}
	if m := core.HyperMakespan(h, a); m != got.Makespan {
		t.Fatalf("assignment has makespan %d on the file, report says %d", m, got.Makespan)
	}
	if got.Certificate == nil || !slices.Equal(got.Certificate.Assignment, got.Assignment) {
		t.Fatal("certificate does not carry the mapped assignment")
	}
	if _, err := cert.Verify(h, got.Certificate); err != nil {
		t.Fatalf("mapped certificate does not verify against the file: %v", err)
	}
}
