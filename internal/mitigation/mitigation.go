// Package mitigation models the DDoS-mitigation techniques the paper
// compares Advanced Blackholing against (Table 1 and Section 1.1):
// traffic scrubbing services (TSS), router ACL filters, remotely
// triggered blackholing (RTBH) and BGP Flowspec. Each baseline has a
// qualitative property profile (regenerating Table 1). TSS also has a
// behavioural model, the Scrubber, which the head-to-head experiments
// bill (experiments.CompareMitigations, CombinedTSS); the other
// techniques run there as signals on the exchange itself.
// FlowSpecToMatches compiles RFC 5575 rules for the controller's
// FlowSpec channel.
package mitigation

import "fmt"

// Technique identifies a mitigation approach.
type Technique int

// Techniques in Table 1's column order.
const (
	TSS Technique = iota
	ACL
	RTBH
	Flowspec
	AdvancedBlackholing
)

func (t Technique) String() string {
	switch t {
	case TSS:
		return "TSS"
	case ACL:
		return "ACL filters"
	case RTBH:
		return "RTBH"
	case Flowspec:
		return "Flowspec"
	case AdvancedBlackholing:
		return "Advanced Blackholing"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// Rating is a Table 1 cell.
type Rating int

// Ratings: ✓ advantage, ✗ disadvantage, • neutral.
const (
	Disadvantage Rating = iota
	Neutral
	Advantage
)

func (r Rating) String() string {
	switch r {
	case Advantage:
		return "+"
	case Neutral:
		return "o"
	default:
		return "-"
	}
}

// Property is one Table 1 row.
type Property int

// Properties in Table 1's row order.
const (
	Granularity Property = iota
	SignalingComplexity
	Cooperation
	ResourceSharing
	Telemetry
	Scalability
	Resources
	Performance
	ReactionTime
	Costs
)

// PropertyNames lists the row labels in order.
var PropertyNames = []string{
	"Granularity", "Signaling complexity", "Cooperation", "Resource sharing",
	"Telemetry", "Scalability", "Resources", "Performance", "Reaction time", "Costs",
}

func (p Property) String() string {
	if int(p) < len(PropertyNames) {
		return PropertyNames[p]
	}
	return fmt.Sprintf("Property(%d)", int(p))
}

// Table1 returns the paper's qualitative comparison matrix, exactly as
// published: rows Table 1, columns TSS/ACL/RTBH/Flowspec/AdvancedBH.
func Table1() map[Property]map[Technique]Rating {
	row := func(tss, acl, rtbh, fs, abh Rating) map[Technique]Rating {
		return map[Technique]Rating{TSS: tss, ACL: acl, RTBH: rtbh, Flowspec: fs, AdvancedBlackholing: abh}
	}
	return map[Property]map[Technique]Rating{
		Granularity:         row(Advantage, Advantage, Disadvantage, Advantage, Advantage),
		SignalingComplexity: row(Disadvantage, Disadvantage, Disadvantage, Disadvantage, Advantage),
		Cooperation:         row(Neutral, Neutral, Disadvantage, Disadvantage, Advantage),
		ResourceSharing:     row(Advantage, Advantage, Advantage, Disadvantage, Advantage),
		Telemetry:           row(Advantage, Disadvantage, Disadvantage, Neutral, Advantage),
		Scalability:         row(Disadvantage, Neutral, Advantage, Advantage, Advantage),
		Resources:           row(Disadvantage, Disadvantage, Advantage, Disadvantage, Advantage),
		Performance:         row(Disadvantage, Advantage, Advantage, Advantage, Advantage),
		ReactionTime:        row(Disadvantage, Disadvantage, Advantage, Advantage, Advantage),
		Costs:               row(Disadvantage, Neutral, Advantage, Advantage, Advantage),
	}
}

// ---------------------------------------------------------------------
// Behavioural model.

// Scrubber models a traffic scrubbing service (TSS): traffic is
// redirected to the scrubbing center, cleaned with an imperfect
// true/false-positive profile, and billed per byte.
type Scrubber struct {
	// CapacityBps is the scrubbing center's ingest capacity; traffic
	// beyond it is dropped indiscriminately (the Tbps-attack failure
	// mode of Section 1.1).
	CapacityBps float64
	// DetectionRate is the fraction of attack bytes correctly removed.
	DetectionRate float64
	// FalsePositiveRate is the fraction of benign bytes wrongly removed.
	FalsePositiveRate float64
	// CostPerGB is the per-gigabyte scrubbing fee.
	CostPerGB float64

	// TotalCost accumulates fees across Scrub calls.
	TotalCost float64
}

// ScrubResult is the outcome of scrubbing one tick of traffic.
type ScrubResult struct {
	CleanBenignBytes  float64 // benign traffic surviving the scrub
	LeakedAttackBytes float64 // attack bytes the scrubber missed
	DroppedBytes      float64 // removed bytes (attack + false positives + overload)
	Cost              float64
}

// Scrub processes one tick of (attackBytes, benignBytes) over dtSeconds.
func (s *Scrubber) Scrub(attackBytes, benignBytes, dtSeconds float64) ScrubResult {
	var r ScrubResult
	total := attackBytes + benignBytes
	capBytes := s.CapacityBps * dtSeconds / 8
	admitFrac := 1.0
	if s.CapacityBps > 0 && total > capBytes && total > 0 {
		admitFrac = capBytes / total
		r.DroppedBytes += total - capBytes
	}
	attack := attackBytes * admitFrac
	benign := benignBytes * admitFrac

	caught := attack * s.DetectionRate
	fp := benign * s.FalsePositiveRate
	r.DroppedBytes += caught + fp
	r.LeakedAttackBytes = attack - caught
	r.CleanBenignBytes = benign - fp
	r.Cost = total / 1e9 * s.CostPerGB
	s.TotalCost += r.Cost
	return r
}
