package backend

import (
	"fmt"

	"ppstream/internal/ilp"
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
	// Objective is the ILP objective achieved.
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
// linear round, minimizing estimated cost (plus the profile's privacy
// penalty) subject to the profile's allowed sets.
//
// Safety rules enforced regardless of profile: round 0 always runs
// paillier-he (the input itself must never leave the client
// unencrypted), clear is only allowed from the certified boundary
// onward, and the clear region is a contiguous suffix.
func PlanFor(profile Profile, layers []LayerInfo, boundary, keyBits int) (*Plan, error) {
	profile, err := ParseProfile(string(profile))
	if err != nil {
		return nil, err
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("backend: no layers to plan")
	}
	if boundary < 1 {
		boundary = 1
	}
	if boundary > len(layers) {
		boundary = len(layers)
	}
	kinds := Kinds()
	ilpLayers := make([]ilp.BackendLayer, len(layers))
	for l, info := range layers {
		cs := CostShape{
			Muls: info.Muls, Outs: info.Outs,
			Replies: info.Replies, SlotBits: info.SlotBits,
			KeyBits: keyBits, ReluFollows: info.ReluFollows,
		}
		choices := make([]ilp.BackendChoice, len(kinds))
		for b, k := range kinds {
			be, err := For(k)
			if err != nil {
				return nil, err
			}
			c := ilp.BackendChoice{Name: string(k), Cost: be.EstimateCost(cs)}
			switch {
			case l == 0:
				c.Allowed = k == PaillierHE
			case profile == ProfilePrivacyMax:
				c.Allowed = k == PaillierHE
			case k == Clear:
				c.Allowed = l >= boundary
			default:
				c.Allowed = true
			}
			// The mixed profile's privacy penalty: each value handled
			// outside HE before the certified boundary costs penaltyPerOut.
			// Past the boundary the certification says the values carry no
			// usable information about the input, so no penalty applies.
			if profile == ProfileMixed && k != PaillierHE && l < boundary {
				c.Penalty = penaltyPerOut * float64(info.Outs)
			}
			choices[b] = c
		}
		ilpLayers[l] = ilp.BackendLayer{Name: info.Name, Choices: choices}
	}
	λ := 0.0
	if profile == ProfileMixed {
		λ = mixedPenaltyWeight
	}
	clearIdx := -1
	for b, k := range kinds {
		if k == Clear {
			clearIdx = b
		}
	}
	sol, err := ilp.AssignBackends(ilpLayers, ilp.AssignOptions{PenaltyWeight: λ, MonotoneSuffix: clearIdx})
	if err != nil {
		return nil, err
	}
	plan := &Plan{Profile: profile, Assignment: make([]Kind, len(layers)), Boundary: boundary, Objective: sol.Objective}
	for l, b := range sol.Chosen {
		plan.Assignment[l] = kinds[b]
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
		if _, err := For(k); err != nil {
			return err
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

// LegacyPlan is the assignment used when the peer predates backend
// negotiation: every round on paillier-he, the original protocol.
func LegacyPlan(rounds int) []Kind {
	out := make([]Kind, rounds)
	for i := range out {
		out[i] = PaillierHE
	}
	return out
}
