package core

import "stellar/internal/fabric"

// Telemetry is the member-facing feedback channel Section 3.1 demands:
// victims query the counters of their installed blackholing rules to see
// whether the attack is ongoing, how much was discarded, and how much
// sampled traffic passed a shaping queue — instead of probing by
// removing the blackhole and risking immediate re-congestion.

// CounterSource is implemented by network managers that can expose
// per-rule telemetry counters.
type CounterSource interface {
	// Counters returns the live counters of an installed rule.
	Counters(ruleID string) (*fabric.RuleCounters, error)
}

// Counters implements CounterSource.
func (m *QoSManager) Counters(ruleID string) (*fabric.RuleCounters, error) {
	m.mu.Lock()
	fp, ok := m.installed[ruleID]
	m.mu.Unlock()
	if !ok {
		return nil, fabric.ErrNoSuchRule
	}
	port, err := m.fabric.PortByName(fp.member)
	if err != nil {
		return nil, err
	}
	rule, err := port.Rule(ruleID)
	if err != nil {
		return nil, err
	}
	return rule.Counters(), nil
}
