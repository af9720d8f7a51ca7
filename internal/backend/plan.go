package backend

import (
	"fmt"
	"math"
	"slices"
)

// Profile names a deployment posture: which backends each round may
// use and how heavily privacy exposure weighs against execution cost.
type Profile string

const (
	// ProfileLatency minimizes pure execution cost within the safety
	// rules (round 0 always encrypted, clear only past the boundary).
	ProfileLatency Profile = "latency"
	// ProfilePrivacyMax runs every round under Paillier — the paper's
	// original protocol, unconditionally.
	ProfilePrivacyMax Profile = "privacy-max"
	// ProfileMixed trades cost against a privacy penalty proportional
	// to the values exposed to weaker-than-HE protection.
	ProfileMixed Profile = "mixed"
)

// ParseProfile parses a profile name; empty selects privacy-max (the
// legacy behavior — old clients that send no profile get the paper's
// protocol).
func ParseProfile(s string) (Profile, error) {
	switch Profile(s) {
	case "":
		return ProfilePrivacyMax, nil
	case ProfileLatency, ProfilePrivacyMax, ProfileMixed:
		return Profile(s), nil
	default:
		return "", fmt.Errorf("backend: unknown profile %q (want latency, privacy-max, or mixed)", s)
	}
}

// profileRank orders profiles by privacy strictness.
func profileRank(p Profile) int {
	switch p {
	case ProfilePrivacyMax:
		return 2
	case ProfileMixed:
		return 1
	default: // latency, and anything unknown treated as least strict
		return 0
	}
}

// Stricter returns the more privacy-protective of two profiles —
// session negotiation takes the stricter of the server's policy and the
// client's request, so neither side can weaken the other's posture.
func Stricter(a, b Profile) Profile {
	if profileRank(a) >= profileRank(b) {
		return a
	}
	return b
}

// mixedPenaltyWeight is λ for ProfileMixed.
const mixedPenaltyWeight = 0.5

// LayerInfo is the planner's view of one linear round.
type LayerInfo struct {
	Name string
	// Muls counts the round's non-zero weight multiplications.
	Muls int
	// Outs counts the round's output elements.
	Outs int
	// Replies counts the ciphertexts a paillier-he reply packs the outputs
	// into under the session's key, SlotBits the width of one output's
	// slot there (from the stage's output bound).
	Replies  int
	SlotBits int
	// ReluFollows marks that the following nonlinear stage starts with
	// ReLU, so the ss-gc backend would run a garbled circuit there.
	ReluFollows bool
}

// Plan is a solved per-round backend assignment for one session.
type Plan struct {
	Profile    Profile
	Assignment []Kind
	// Boundary is the certified clear boundary used: the first round
	// allowed to run in the clear (len(Assignment) = none).
	Boundary int
	// Objective is the summed cost (plus penalty) the assignment achieves.
	Objective float64
}

// Codes encodes the assignment for the wire.
func (p *Plan) Codes() []int32 {
	out := make([]int32, len(p.Assignment))
	for i, k := range p.Assignment {
		out[i] = k.Code()
	}
	return out
}

// AssignmentFromCodes decodes a wire plan.
func AssignmentFromCodes(codes []int32) ([]Kind, error) {
	out := make([]Kind, len(codes))
	for i, c := range codes {
		k, err := KindFromCode(c)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

// PlanFor solves the backend assignment for a session: one kind per
// linear round, minimizing the summed estimated cost (plus the mixed
// profile's privacy penalty) subject to the safety rules, which hold
// regardless of profile: round 0 always runs paillier-he (the input
// itself must never leave the client unencrypted), privacy-max runs every
// round on paillier-he, and clear runs only on a contiguous suffix
// starting at or after the certified boundary.
//
// The search is exact: the objective is a sum over rounds and the clear
// suffix is the only link between them, so once the suffix's first round
// is fixed every earlier round independently takes the cheaper of
// paillier-he and ss-gc. PlanFor tries every first clear round (including
// none) and keeps the cheapest; ties go to fewer clear rounds and to
// paillier-he.
func PlanFor(profile Profile, layers []LayerInfo, boundary, keyBits int) (*Plan, error) {
	profile, err := ParseProfile(string(profile))
	if err != nil {
		return nil, err
	}
	rounds := len(layers)
	if rounds == 0 {
		return nil, fmt.Errorf("backend: no layers to plan")
	}
	boundary = min(max(boundary, 1), rounds)
	// price is round l's term of the objective on backend k. Under mixed,
	// each value handled outside HE before the certified boundary adds
	// λ·penaltyPerOut; past the boundary the certification says the values
	// carry no usable information about the input, so no penalty applies.
	price := func(l int, k Kind) float64 {
		c := EstimateCost(k, layers[l], keyBits)
		if profile == ProfileMixed && k != PaillierHE && l < boundary {
			c += mixedPenaltyWeight * (penaltyPerOut * float64(layers[l].Outs))
		}
		return c
	}
	encrypted := make([]Kind, rounds)
	for l := range encrypted {
		encrypted[l] = PaillierHE
		if l > 0 && profile != ProfilePrivacyMax && price(l, SSGC) < price(l, PaillierHE) {
			encrypted[l] = SSGC
		}
	}
	firstClear := boundary
	if profile == ProfilePrivacyMax {
		firstClear = rounds
	}
	plan := &Plan{Profile: profile, Boundary: boundary, Objective: math.Inf(1)}
	for c := rounds; c >= firstClear; c-- {
		assignment, total := make([]Kind, rounds), 0.0
		for l := range assignment {
			assignment[l] = encrypted[l]
			if l >= c {
				assignment[l] = Clear
			}
			total += price(l, assignment[l])
		}
		if total < plan.Objective {
			plan.Assignment, plan.Objective = assignment, total
		}
	}
	return plan, nil
}

// ValidateAssignment checks a (possibly remote-supplied) assignment
// against the safety rules and the requested profile. Clients run this
// on the server's plan before honoring it.
func ValidateAssignment(profile Profile, assignment []Kind, rounds int) error {
	if len(assignment) != rounds {
		return fmt.Errorf("backend: plan covers %d rounds, session has %d", len(assignment), rounds)
	}
	if assignment[0] != PaillierHE {
		return fmt.Errorf("backend: plan runs round 0 on %q — the input must stay encrypted", assignment[0])
	}
	sawClear := false
	for r, k := range assignment {
		if !slices.Contains(Kinds(), k) {
			return fmt.Errorf("backend: plan assigns unknown backend %q to round %d", k, r)
		}
		if profile == ProfilePrivacyMax && k != PaillierHE {
			return fmt.Errorf("backend: privacy-max plan assigns %q to round %d", k, r)
		}
		if k == Clear {
			sawClear = true
		} else if sawClear {
			return fmt.Errorf("backend: clear round precedes %q round %d — clear must be a suffix", k, r)
		}
	}
	return nil
}
