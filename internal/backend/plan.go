package backend

import (
	"fmt"
	"math"
	"slices"

	"ppstream/internal/obs"
	"ppstream/internal/paillier"
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

// The mixed profile's privacy penalty: each value a round exposes to
// weaker-than-HE protection before the clear boundary costs
// mixedPenaltyWeight × penaltyPerOut Beaver-triple multiplications, at the
// session's measured Triple unit — so the penalty keeps its weight against
// ss-gc arithmetic whatever the host.
const (
	mixedPenaltyWeight = 0.5
	penaltyPerOut      = 100
)

// ringBits is the widest slot ss-gc can run: its shares live in
// Z_{2^64}, which holds exactly the values of [−2^63, 2^63). The ring is a
// homomorphic image of the integers, so a linear stage whose outputs fit
// reconstructs exactly whatever its intermediate values wrap to; one
// whose outputs may not fit would reconstruct them modulo 2^64.
const ringBits = 64

// LayerInfo is the planner's view of one linear round.
type LayerInfo struct {
	Name string
	// Outs counts the round's output elements: the values a round off
	// paillier-he exposes.
	Outs int
	// SlotBits is the slot width the round's outputs need (qnn.Stage):
	// ss-gc runs the round only if its ring holds it (CheckRing).
	SlotBits int
	// Replies counts the ciphertexts a paillier-he reply packs the outputs
	// into under the session's key.
	Replies int
	// HE, SSGC and Clear are the operations the round meters on each
	// backend, from the round's input to the data provider's opening of
	// its output:
	//
	//   - paillier-he: the kernel's multiplications and inversions
	//     (qnn.StageCost), Pack's (PackMulMods), one blinding and one
	//     decryption per reply, and past round 0 the data provider's
	//     encryption of the round's inputs;
	//   - ss-gc: one Beaver triple per non-zero weight, their openings and
	//     the output's, the garbled ReLU that follows (ReLUCost), and one
	//     plain op per value the data provider shares out or reconstructs;
	//   - clear: one plain multiply-accumulate per non-zero weight, and past
	//     round 0 one per input the data provider encodes.
	HE, SSGC, Clear obs.CostStats
}

// Cost returns the operations the round meters on backend k.
func (l *LayerInfo) Cost(k Kind) obs.CostStats {
	switch k {
	case SSGC:
		return l.SSGC
	case Clear:
		return l.Clear
	default:
		return l.HE
	}
}

// Plan is a solved per-round backend assignment for one session.
type Plan struct {
	Profile    Profile
	Assignment []Kind
	// Boundary is the clear boundary used, as the operator set it: the
	// first round allowed to run in the clear (len(Assignment) = none).
	Boundary int
	// Objective is the summed cost (plus penalty) the assignment achieves,
	// in seconds; zero under privacy-max, which prices nothing.
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
// linear round, minimizing the summed price of the rounds (plus the mixed
// profile's privacy penalty) at the unit costs MeasureUnitCosts measures
// for keyBits, subject to the safety rules, which hold regardless of
// profile: round 0 always runs paillier-he (the input itself must never
// leave the client unencrypted), privacy-max runs every round on
// paillier-he, ss-gc runs no round whose SlotBits exceed its 64-bit ring,
// and clear runs only on a contiguous suffix starting at or after the
// clear boundary. Privacy-max has one admissible assignment,
// so it measures and prices nothing.
func PlanFor(profile Profile, layers []LayerInfo, boundary, keyBits int) (*Plan, error) {
	profile, err := ParseProfile(string(profile))
	if err != nil {
		return nil, err
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("backend: no layers to plan")
	}
	var u paillier.UnitCosts
	if profile != ProfilePrivacyMax {
		if u, err = MeasureUnitCosts(keyBits); err != nil {
			return nil, err
		}
	}
	return planWith(profile, layers, boundary, u), nil
}

// planWith is PlanFor's search at unit costs u, a pure function of its
// arguments. It is exact: the objective is a sum over rounds and the clear
// suffix is the only link between them, so once the suffix's first round
// is fixed every earlier round independently takes the cheaper of
// paillier-he and ss-gc. planWith tries every first clear round (including
// none) and keeps the cheapest; ties go to fewer clear rounds and to
// paillier-he.
func planWith(profile Profile, layers []LayerInfo, boundary int, u paillier.UnitCosts) *Plan {
	rounds := len(layers)
	boundary = min(max(boundary, 1), rounds)
	plan := &Plan{Profile: profile, Boundary: boundary, Assignment: make([]Kind, rounds)}
	if profile == ProfilePrivacyMax {
		for l := range plan.Assignment {
			plan.Assignment[l] = PaillierHE
		}
		return plan
	}
	// price is round l's term of the objective on backend k. Under mixed,
	// each value handled outside HE before the clear boundary adds the
	// penalty; past the boundary the operator holds that the values carry
	// no usable information about the input, so no penalty applies.
	price := func(l int, k Kind) float64 {
		c := u.Price(layers[l].Cost(k))
		if profile == ProfileMixed && k != PaillierHE && l < boundary {
			c += mixedPenaltyWeight * penaltyPerOut * u.Triple * float64(layers[l].Outs)
		}
		return c
	}
	encrypted := make([]Kind, rounds)
	for l := range encrypted {
		encrypted[l] = PaillierHE
		if l > 0 && layers[l].SlotBits <= ringBits && price(l, SSGC) < price(l, PaillierHE) {
			encrypted[l] = SSGC
		}
	}
	plan.Objective = math.Inf(1)
	for c := rounds; c >= boundary; c-- {
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
	return plan
}

// ValidateAssignment checks a (possibly remote-supplied) assignment for a
// session of the given rounds against the safety rules both parties know
// and the requested profile: one known kind per round, round 0 on
// paillier-he, every round on it under privacy-max, and clear only as a
// suffix. Clients run this on the server's plan before honoring it.
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

// CheckRing refuses an assignment that runs a round on ss-gc whose values,
// layers[r].SlotBits wide, its ring cannot hold. Only the model provider
// knows the widths, so only it checks this rule, as PlanFor does.
func CheckRing(assignment []Kind, layers []LayerInfo) error {
	for r, k := range assignment {
		if k == SSGC && r < len(layers) && layers[r].SlotBits > ringBits {
			return fmt.Errorf("backend: plan runs round %d on ss-gc, whose %d-bit ring cannot hold its %d-bit values", r, ringBits, layers[r].SlotBits)
		}
	}
	return nil
}
