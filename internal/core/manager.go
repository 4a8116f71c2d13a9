package core

import (
	"errors"
	"fmt"
	"sync"

	"stellar/internal/fabric"
	"stellar/internal/hw"
)

// NetworkManager compiles abstract configuration changes into data-plane
// state (Section 4.4). QoSManager — vendor QoS policies, the option the
// paper deployed — is the implementation; the interface is the seam the
// mitigation controller's tests substitute fakes through.
type NetworkManager interface {
	// Apply performs one configuration change, respecting the hardware
	// information base; it returns an error when admission control
	// rejects the change.
	Apply(ConfigChange) error
	// Name labels the backend.
	Name() string
}

// ErrRuleExists is returned when installing an already-installed rule ID.
var ErrRuleExists = errors.New("core: rule already installed")

// QoSManager realizes blackholing rules as member-port QoS policies on
// the emulated edge router (Section 4.5): each install consumes TCAM
// criteria and a QoS policy slot, each removal releases them. The
// hardware information base (hw.EdgeRouter limits) performs admission
// control so the IXP platform can never be driven into resource
// exhaustion by blackholing requests (Section 4.1.2).
type QoSManager struct {
	fabric *fabric.Fabric
	router *hw.EdgeRouter

	mu        sync.Mutex
	portIndex map[string]int // member -> hw port index
	installed map[string]ruleFootprint
}

type ruleFootprint struct {
	member  string
	macCrit int
	l34Crit int
	portIdx int
}

// NewQoSManager builds a manager over the fabric and edge router. The
// portIndex maps member names to hardware port indices.
func NewQoSManager(f *fabric.Fabric, router *hw.EdgeRouter, portIndex map[string]int) *QoSManager {
	idx := make(map[string]int, len(portIndex))
	for k, v := range portIndex {
		idx[k] = v
	}
	return &QoSManager{fabric: f, router: router, portIndex: idx, installed: make(map[string]ruleFootprint)}
}

// Name implements NetworkManager.
func (m *QoSManager) Name() string { return "qos" }

// SetPortIndex registers (or re-homes) a member's hardware port index.
// ixp.Join calls it for a member that arrives after Build, with the
// index hw.EdgeRouter.AddPort returned.
func (m *QoSManager) SetPortIndex(member string, idx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.portIndex[member] = idx
}

// Apply implements NetworkManager.
func (m *QoSManager) Apply(c ConfigChange) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch c.Op {
	case OpInstall:
		if _, ok := m.installed[c.RuleID]; ok {
			return ErrRuleExists
		}
		port, err := m.fabric.PortByName(c.Member)
		if err != nil {
			return err
		}
		idx, ok := m.portIndex[c.Member]
		if !ok {
			return fmt.Errorf("core: member %s has no hardware port", c.Member)
		}
		mac, l34 := c.Match.CriteriaCount()
		if err := m.router.Allocate(idx, mac, l34); err != nil {
			return err // F1/F2/slots: admission control rejection
		}
		rule := &fabric.Rule{
			ID:           c.RuleID,
			Match:        c.Match,
			Action:       c.Action,
			ShapeRateBps: c.ShapeRateBps,
		}
		if err := port.InstallRule(rule); err != nil {
			_ = m.router.Release(idx, mac, l34)
			return err
		}
		m.installed[c.RuleID] = ruleFootprint{member: c.Member, macCrit: mac, l34Crit: l34, portIdx: idx}
		return nil
	case OpRemove:
		fp, ok := m.installed[c.RuleID]
		if !ok {
			return fabric.ErrNoSuchRule
		}
		port, err := m.fabric.PortByName(fp.member)
		if err != nil {
			return err
		}
		if err := port.RemoveRule(c.RuleID); err != nil {
			return err
		}
		if err := m.router.Release(fp.portIdx, fp.macCrit, fp.l34Crit); err != nil {
			return err
		}
		delete(m.installed, c.RuleID)
		return nil
	default:
		return fmt.Errorf("core: unknown op %v", c.Op)
	}
}

// InstalledCount returns the number of rules currently installed.
func (m *QoSManager) InstalledCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.installed)
}
