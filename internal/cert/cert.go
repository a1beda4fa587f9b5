// Package cert makes solve results proof-carrying: a Certificate records
// what a solver claims about a schedule — the instance it belongs to (by
// canonical fingerprint), the schedule itself, its makespan, and an
// optimality witness naming which lower bound closed the gap — and Verify
// checks the claim against the instance without trusting the producer.
//
// Verification recomputes everything recomputable: the fingerprint, the
// schedule's feasibility, its per-processor loads and makespan, and the
// claimed lower bound, re-derived from the instance itself. The outcome
// is a trust tier:
//
//   - TierVerified: the schedule is feasible, the makespan matches, and a
//     lower bound re-derived from the instance equals it — optimality is
//     proven locally, with no trust in the producing solver.
//   - TierAttested: the claims are internally consistent and everything
//     recomputable checks out, but optimality rests on the solver's
//     attestation (an exhaustive branch-and-bound, or a polynomial exact
//     algorithm) that cannot be re-derived without redoing the work.
//   - TierHeuristic: the schedule is feasible and the makespan matches,
//     but no optimality claim is made.
//
// Any mismatch — wrong fingerprint, infeasible assignment, a makespan or
// bound that does not recompute — fails Verify with an error describing
// the lie. This is what lets replicas, restarts and caches exchange
// results: a cached entry is admitted only if its certificate verifies,
// so a corrupt or forged entry can never poison an answer.
package cert

import (
	"errors"
	"fmt"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/encode"
	"semimatch/internal/hypergraph"
	"semimatch/internal/lb"
)

// Problem-class labels recorded in certificates (matching the registry's
// class names without importing it).
const (
	ClassSingleProc = "SINGLEPROC"
	ClassMultiProc  = "MULTIPROC"
)

// Tier is the trust level Verify establishes for a certificate.
type Tier uint8

const (
	// TierHeuristic: the schedule is feasible and its makespan matches,
	// with no optimality proof.
	TierHeuristic Tier = iota
	// TierAttested: optimality is claimed by solver attestation (e.g. an
	// exhausted branch-and-bound tree); everything recomputable verifies,
	// but the attestation itself cannot be re-derived cheaply.
	TierAttested
	// TierVerified: optimality is proven locally — a lower bound
	// re-derived from the instance equals the recomputed makespan.
	TierVerified
)

// String returns the tier label used in listings and JSON.
func (t Tier) String() string {
	switch t {
	case TierHeuristic:
		return "heuristic"
	case TierAttested:
		return "attested"
	case TierVerified:
		return "verified"
	default:
		return fmt.Sprintf("Tier(%d)", uint8(t))
	}
}

// MarshalJSON encodes the tier as its string label.
func (t Tier) MarshalJSON() ([]byte, error) { return []byte(`"` + t.String() + `"`), nil }

// UnmarshalJSON decodes a tier label; unknown labels are an error, so
// stale or foreign cache entries fail loudly instead of silently
// downgrading.
func (t *Tier) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"heuristic"`:
		*t = TierHeuristic
	case `"attested"`:
		*t = TierAttested
	case `"verified"`:
		*t = TierVerified
	default:
		return fmt.Errorf("cert: unknown trust tier %s", b)
	}
	return nil
}

// WitnessKind names the argument a certificate offers for optimality.
type WitnessKind uint8

const (
	// WitnessNone makes no optimality claim (heuristic or truncated
	// results).
	WitnessNone WitnessKind = iota
	// WitnessAverageLoad: the average-load bound — ⌈Σ cheapest-placement
	// work / p⌉ (Eq. (1) for MULTIPROC, its weighted SINGLEPROC analogue)
	// — equals the makespan. Re-derivable from the instance in linear
	// time.
	WitnessAverageLoad
	// WitnessMaxElement: the max-element bound — some processor must
	// absorb the cheapest placement of the heaviest task whole — equals
	// the makespan. Re-derivable from the instance in linear time.
	WitnessMaxElement
	// WitnessExhaustive: the solver attests optimality by complete search
	// (an exhausted branch-and-bound tree; Witness.Nodes records its
	// size) or by an exact polynomial algorithm (Nodes is 0). Verifiable
	// only for consistency, not re-derivable: Verify caps such
	// certificates at TierAttested unless a re-derived bound happens to
	// close the gap anyway.
	WitnessExhaustive
	// WitnessPacking: the bin-packing bound on the identical-machines
	// relaxation (items are each task's cheapest placement weight;
	// L1 + k-tuple + Martello–Toth dual) equals the makespan.
	// Re-derivable from the instance in near-linear time.
	WitnessPacking
	// WitnessMatching: the matching/max-flow bound — the smallest
	// deadline T for which every task can route its cheapest placement
	// through an edge of weight ≤ T with processor capacity T — equals
	// the makespan. Re-derivable from the instance in polynomial time
	// (a max-flow bisection).
	WitnessMatching
)

// String returns the witness label used in listings and JSON.
func (k WitnessKind) String() string {
	switch k {
	case WitnessNone:
		return "none"
	case WitnessAverageLoad:
		return "average-load"
	case WitnessMaxElement:
		return "max-element"
	case WitnessExhaustive:
		return "exhaustive"
	case WitnessPacking:
		return "packing"
	case WitnessMatching:
		return "matching"
	default:
		return fmt.Sprintf("WitnessKind(%d)", uint8(k))
	}
}

// MarshalJSON encodes the witness kind as its string label.
func (k WitnessKind) MarshalJSON() ([]byte, error) { return []byte(`"` + k.String() + `"`), nil }

// UnmarshalJSON decodes a witness label; unknown labels are an error.
func (k *WitnessKind) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"none"`:
		*k = WitnessNone
	case `"average-load"`:
		*k = WitnessAverageLoad
	case `"max-element"`:
		*k = WitnessMaxElement
	case `"exhaustive"`:
		*k = WitnessExhaustive
	case `"packing"`:
		*k = WitnessPacking
	case `"matching"`:
		*k = WitnessMatching
	default:
		return fmt.Errorf("cert: unknown witness kind %s", b)
	}
	return nil
}

// Witness is a certificate's optimality argument.
type Witness struct {
	// Kind names which lower bound closed the gap, or WitnessExhaustive
	// for a search/algorithmic attestation, or WitnessNone for no claim.
	Kind WitnessKind `json:"kind"`
	// Nodes is the attesting branch-and-bound search's tree size
	// (WitnessExhaustive only; 0 for polynomial exact solvers).
	Nodes int64 `json:"nodes,omitempty"`
}

// Certificate is one proof-carrying result: the claims a caller can check
// with Verify instead of trusting the solver (or the cache, or the
// replica) that produced it.
type Certificate struct {
	// Fingerprint is the canonical content hash (hex SHA-256) of the
	// instance this certificate belongs to; isomorphic instances share it.
	Fingerprint string `json:"fingerprint"`
	// Class is the problem class (ClassSingleProc or ClassMultiProc).
	Class string `json:"class"`
	// Solver is the canonical registry name of the producing solver.
	Solver string `json:"solver,omitempty"`
	// Assignment is the schedule, in the certified instance's own
	// encoding: task → processor (SINGLEPROC) or task → hyperedge id
	// (MULTIPROC).
	Assignment []int32 `json:"assignment"`
	// Makespan is the claimed maximum processor load of Assignment.
	Makespan int64 `json:"makespan"`
	// LowerBound is the claimed lower bound on the optimal makespan. For
	// certificates with a non-none witness it equals Makespan (the gap is
	// closed); otherwise it may not exceed the cheap bounds
	// (average-load, max-element), which Issue sets it to.
	LowerBound int64 `json:"lower_bound"`
	// Witness is the optimality argument.
	Witness Witness `json:"witness"`
}

// ClaimedTier is the tier this certificate would earn if its claims check
// out — for display before (or without) verification. Verify is the real
// thing.
func (c *Certificate) ClaimedTier() Tier {
	switch c.Witness.Kind {
	case WitnessAverageLoad, WitnessMaxElement, WitnessPacking, WitnessMatching:
		return TierVerified
	case WitnessExhaustive:
		return TierAttested
	default:
		return TierHeuristic
	}
}

// Bounds re-derives the two cheap instance-level lower bounds on the
// optimal makespan: the average-load bound (each task in its cheapest
// placement, total work spread perfectly over the processors, rounded up)
// and the max-element bound (the heaviest task's cheapest placement must
// land whole on some processor). instance must be a *bipartite.Graph or a
// *hypergraph.Hypergraph; a graph is bounded as its singleton-hyperedge
// lift. These are the bounds WitnessAverageLoad and
// WitnessMaxElement certificates are checked against, and the bounds the
// exact engines report in SearchStats.
func Bounds(instance any) (avg, maxElem int64, err error) {
	h, err := lift(instance)
	if err != nil {
		return 0, 0, err
	}
	avg, maxElem = bounds(h)
	return avg, maxElem, nil
}

// lift returns the MULTIPROC form every bound is derived on: a
// hypergraph as is, a SINGLEPROC graph as its singleton-hyperedge lift
// (hypergraph.FromGraph), whose bounds are the graph's.
func lift(instance any) (*hypergraph.Hypergraph, error) {
	switch v := instance.(type) {
	case *bipartite.Graph:
		return hypergraph.FromGraph(v), nil
	case *hypergraph.Hypergraph:
		return v, nil
	case nil:
		return nil, errors.New("cert: nil instance")
	default:
		return nil, fmt.Errorf("cert: unsupported instance type %T", instance)
	}
}

// identify returns an instance's lift together with its class label and
// canonical fingerprint. The lift and class are set even when
// fingerprinting fails; only an unsupported instance returns a nil lift.
func identify(instance any) (h *hypergraph.Hypergraph, class, fp string, err error) {
	if h, err = lift(instance); err != nil {
		return nil, "", "", err
	}
	if g, ok := instance.(*bipartite.Graph); ok {
		class = ClassSingleProc
		fp, err = encode.FingerprintBipartite(g)
	} else {
		class = ClassMultiProc
		fp, err = encode.FingerprintHypergraph(h)
	}
	if err != nil {
		err = fmt.Errorf("cert: fingerprinting instance: %w", err)
	}
	return h, class, fp, err
}

// bounds is Bounds on the MULTIPROC form.
func bounds(h *hypergraph.Hypergraph) (avg, maxElem int64) {
	if h.NProcs == 0 || h.NTasks == 0 {
		return 0, 0
	}
	var total int64
	for t := 0; t < h.NTasks; t++ {
		bestCost, bestW := int64(-1), int64(-1)
		for _, e := range h.TaskEdges(t) {
			if c := h.Weight[e] * int64(h.EdgeSize(e)); bestCost < 0 || c < bestCost {
				bestCost = c
			}
			if w := h.Weight[e]; bestW < 0 || w < bestW {
				bestW = w
			}
		}
		if bestCost > 0 {
			total += bestCost
		}
		if bestW > maxElem {
			maxElem = bestW
		}
	}
	p := int64(h.NProcs)
	return (total + p - 1) / p, maxElem
}

// matchingBoundCap gates the opportunistic matching-bound re-derivation
// in Issue: the max-flow bisection is polynomial but not free, so for
// very large instances an optimal result keeps its exhaustive
// attestation instead of paying a flow per certificate. Verification of
// an explicitly claimed matching witness is never gated — correctness
// beats cost once the claim is on the table.
const matchingBoundCap = 65536

// rederive recomputes the strong bound (packing or matching) a witness
// names, ungated.
func rederive(h *hypergraph.Hypergraph, kind WitnessKind) int64 {
	if kind == WitnessPacking {
		return lb.Packing(lb.MinPlacementsHyper(h), h.NProcs)
	}
	return lb.MatchingHyper(h)
}

// Issue builds the certificate for a solved instance: the fingerprint is
// computed from the instance, and the witness is chosen by re-deriving
// bounds — a bound that closes the gap beats an attestation, because it
// makes the certificate independently verifiable. The cheap bounds
// (average-load, max-element) are always tried; when the solver proved
// optimality and the cheap bounds leave the gap open, the packing and
// matching bounds are tried before falling back to the exhaustive
// attestation. optimal says the solver proved optimality; nodes is the
// attesting search's tree size. A certificate with a witness carries the
// makespan as its lower bound, a no-claim one the larger cheap bound.
// Returns nil (no certificate) only when the instance cannot be
// fingerprinted or is of an unsupported type.
func Issue(instance any, assignment []int32, makespan int64, optimal bool, nodes int64, solver string) *Certificate {
	h, class, fp, err := identify(instance)
	if err != nil {
		return nil
	}
	avg, maxElem := bounds(h)
	c := &Certificate{
		Fingerprint: fp,
		Class:       class,
		Solver:      solver,
		Assignment:  assignment,
		Makespan:    makespan,
		LowerBound:  max(avg, maxElem),
	}
	switch {
	case makespan == avg:
		c.Witness.Kind = WitnessAverageLoad
	case makespan == maxElem:
		c.Witness.Kind = WitnessMaxElement
	case optimal && makespan == rederive(h, WitnessPacking):
		c.Witness.Kind = WitnessPacking
	case optimal && h.NTasks <= matchingBoundCap && makespan == rederive(h, WitnessMatching):
		c.Witness.Kind = WitnessMatching
	case optimal:
		c.Witness = Witness{Kind: WitnessExhaustive, Nodes: nodes}
	}
	if c.Witness.Kind != WitnessNone {
		// The gap is closed: the strongest supportable bound is the
		// makespan itself.
		c.LowerBound = makespan
	}
	return c
}

// Verify checks a certificate against the instance it claims to certify,
// trusting nothing: the fingerprint, the assignment's feasibility, the
// loads/makespan and the claimed lower bound are all recomputed from the
// instance. It returns the trust tier the certificate earns, or an error
// describing the first claim that does not hold. A certificate whose
// re-derived bound closes the gap is upgraded to TierVerified even when
// its own witness claims less — verification can prove more than the
// producer claimed, never less.
func Verify(instance any, c *Certificate) (Tier, error) {
	if c == nil {
		return TierHeuristic, errors.New("cert: no certificate")
	}
	h, class, fp, err := identify(instance)
	switch {
	case h == nil:
		return TierHeuristic, err
	case c.Class != class:
		return TierHeuristic, fmt.Errorf("cert: certificate class %q does not match %s instance", c.Class, class)
	case err != nil:
		return TierHeuristic, err
	case fp != c.Fingerprint:
		return TierHeuristic, fmt.Errorf("cert: fingerprint mismatch: certificate %.12s…, instance %.12s…", c.Fingerprint, fp)
	}
	// A SINGLEPROC schedule is checked in its own task → processor
	// encoding; only the bounds run on the lift.
	var m int64
	if g, ok := instance.(*bipartite.Graph); ok {
		if err := core.ValidateAssignment(g, c.Assignment); err != nil {
			return TierHeuristic, fmt.Errorf("cert: infeasible assignment: %w", err)
		}
		m = core.Makespan(g, c.Assignment)
	} else {
		if err := core.ValidateHyperAssignment(h, c.Assignment); err != nil {
			return TierHeuristic, fmt.Errorf("cert: infeasible assignment: %w", err)
		}
		m = core.HyperMakespan(h, c.Assignment)
	}
	return verifyClaims(h, c, m)
}

// verifyClaims checks the numeric claims against the recomputed makespan
// and the bounds re-derived on h, the instance's MULTIPROC form, and
// grades the witness. The cheap bounds are always derived; the strong
// bounds (packing, matching) only for a witness that names them.
func verifyClaims(h *hypergraph.Hypergraph, c *Certificate, makespan int64) (Tier, error) {
	if makespan != c.Makespan {
		return TierHeuristic, fmt.Errorf("cert: makespan mismatch: certificate claims %d, schedule yields %d", c.Makespan, makespan)
	}
	avg, maxElem := bounds(h)
	// A feasible schedule's makespan is an upper bound on the optimum, so
	// a re-derived lower bound above it contradicts the instance.
	best := avg
	if maxElem > best {
		best = maxElem
	}
	if best > makespan {
		return TierHeuristic, fmt.Errorf("cert: re-derived lower bound %d exceeds makespan %d", best, makespan)
	}
	if c.LowerBound > makespan {
		return TierHeuristic, fmt.Errorf("cert: claimed lower bound %d exceeds makespan %d", c.LowerBound, makespan)
	}
	switch c.Witness.Kind {
	case WitnessAverageLoad:
		if avg != makespan {
			return TierHeuristic, fmt.Errorf("cert: average-load witness does not hold: re-derived bound %d, makespan %d", avg, makespan)
		}
		return TierVerified, nil
	case WitnessMaxElement:
		if maxElem != makespan {
			return TierHeuristic, fmt.Errorf("cert: max-element witness does not hold: re-derived bound %d, makespan %d", maxElem, makespan)
		}
		return TierVerified, nil
	case WitnessPacking, WitnessMatching:
		if got := rederive(h, c.Witness.Kind); got != makespan {
			return TierHeuristic, fmt.Errorf("cert: %s witness does not hold: re-derived bound %d, makespan %d", c.Witness.Kind, got, makespan)
		}
		return TierVerified, nil
	case WitnessExhaustive:
		if c.LowerBound != makespan {
			return TierHeuristic, fmt.Errorf("cert: exhaustive witness with open gap: lower bound %d, makespan %d", c.LowerBound, makespan)
		}
		if best == makespan {
			// A cheap bound closes the gap after all: the certificate is
			// fully verifiable, attestation not needed.
			return TierVerified, nil
		}
		return TierAttested, nil
	case WitnessNone:
		if c.LowerBound > best {
			return TierHeuristic, fmt.Errorf("cert: claimed lower bound %d not supported by re-derivable bounds (≤ %d)", c.LowerBound, best)
		}
		if best == makespan {
			// The schedule hit a re-derivable bound: provably optimal,
			// whatever the producer knew.
			return TierVerified, nil
		}
		return TierHeuristic, nil
	default:
		return TierHeuristic, fmt.Errorf("cert: unknown witness kind %d", c.Witness.Kind)
	}
}
