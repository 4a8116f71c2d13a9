package core

import (
	"errors"
	"sync"

	"stellar/internal/fabric"
)

// CustomRule is a member-defined blackholing rule registered through the
// IXP's customer self-service portal (Section 4.3): an arbitrary L2-L4
// match template plus action, referenced from BGP by its ID via the
// SelCustom signal.
type CustomRule struct {
	ID     uint32
	Member string
	// MatchTemplate is the rule's match with the destination prefix left
	// open; the controller fills in the announced prefix.
	MatchTemplate fabric.Match
	Action        fabric.ActionKind
	ShapeRateBps  float64
}

// Portal is the customer-facing rule registry. The IXP also preloads a
// shared set of predefined rules for common attack patterns; those are
// expressible directly in the signal encoding (DropUDPSrcPort etc.) and
// need no portal entry.
type Portal struct {
	mu     sync.RWMutex
	rules  map[string]map[uint32]CustomRule
	nextID uint32
}

// NewPortal returns an empty portal.
func NewPortal() *Portal {
	return &Portal{rules: make(map[string]map[uint32]CustomRule)}
}

// ErrNoSuchRule is returned when a referenced custom rule is not
// registered for the member.
var ErrNoSuchRule = errors.New("core: no such portal rule")

// Define registers a custom rule for member and returns its ID.
func (p *Portal) Define(member string, match fabric.Match, action fabric.ActionKind, shapeRateBps float64) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	r := CustomRule{
		ID:            p.nextID,
		Member:        member,
		MatchTemplate: match,
		Action:        action,
		ShapeRateBps:  shapeRateBps,
	}
	m := p.rules[member]
	if m == nil {
		m = make(map[uint32]CustomRule)
		p.rules[member] = m
	}
	m[r.ID] = r
	return r.ID
}

// Lookup resolves a rule ID for member. Members can only reference their
// own rules — the portal is the authorization boundary.
func (p *Portal) Lookup(member string, id uint32) (CustomRule, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if r, ok := p.rules[member][id]; ok {
		return r, nil
	}
	return CustomRule{}, ErrNoSuchRule
}
