package core

import (
	"fmt"

	"stellar/internal/fabric"
)

// ChangeOp is the kind of an abstract configuration change.
type ChangeOp int

// Operations.
const (
	OpInstall ChangeOp = iota
	OpRemove
)

func (o ChangeOp) String() string {
	if o == OpInstall {
		return "install"
	}
	return "remove"
}

// ConfigChange is one abstract, hardware-independent configuration
// change produced by the blackholing controller from RIB diffs
// (Section 4.4). The network manager compiles it into hardware-specific
// state.
type ConfigChange struct {
	Op ChangeOp
	// Member is the victim member whose egress port the rule applies to.
	Member string
	// RuleID is the stable identifier of the data-plane rule.
	RuleID string
	// Match and Action describe the rule for OpInstall.
	Match        fabric.Match
	Action       fabric.ActionKind
	ShapeRateBps float64
}

func (c ConfigChange) String() string {
	return fmt.Sprintf("%s %s on %s", c.Op, c.RuleID, c.Member)
}

// ApplyError records one failed configuration change.
type ApplyError struct {
	Change ConfigChange
	Err    error
}
