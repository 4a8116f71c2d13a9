package hw

import (
	"errors"
	"fmt"
	"sync"

	"stellar/internal/stats"
)

// Filter-resource exhaustion errors, matching the paper's F1/F2 labels.
var (
	// ErrL34Exhausted (F1): total L3-L4 filter criteria exceeded.
	ErrL34Exhausted = errors.New("hw: F1: L3-L4 filter criteria exhausted")
	// ErrMACExhausted (F2): MAC filter budget exceeded.
	ErrMACExhausted = errors.New("hw: F2: MAC filter budget exhausted")
	// ErrQoSPoliciesExhausted: per-port QoS policy slots exceeded.
	ErrQoSPoliciesExhausted = errors.New("hw: QoS policy slots exhausted on port")
	// ErrUnknownPort is returned for out-of-range port indices.
	ErrUnknownPort = errors.New("hw: unknown port")
)

// Limits describes an edge router's hardware resource budgets — the
// "hardware information base" the network manager consults before
// compiling configuration changes (Section 4.4).
type Limits struct {
	// Ports is the number of member ports on the router.
	Ports int
	// L34CriteriaTotal is the system-wide TCAM budget for L3-L4 filter
	// criteria across all QoS policies.
	L34CriteriaTotal int
	// MACFiltersTotal is the system-wide budget for MAC filter criteria.
	MACFiltersTotal int
	// QoSPoliciesPerPort bounds the number of distinct QoS policies
	// (blackholing rules) attachable to one member port.
	QoSPoliciesPerPort int

	// CPULimitPct is the hard control-plane CPU share available to
	// configuration tasks (the paper's real-time OS enforces 15%).
	CPULimitPct float64
	// CPUBaselinePct is the configuration subsystem's idle CPU usage.
	CPUBaselinePct float64
	// CPUPerUpdatePct is the CPU percentage consumed per (rule update/s).
	CPUPerUpdatePct float64
}

// RTBHUnitN is the reference unit for filter budgets: the 95th percentile
// of concurrently active RTBH rules on any port by any member (the paper's
// N). The simulator uses 8 as a realistic production value; all budget
// math scales linearly in N.
const RTBHUnitN = 8

// DefaultEdgeRouterLimits returns the calibrated production edge-router
// profile with the given number of member ports, expressed in units of n
// (use RTBHUnitN for the paper's N).
func DefaultEdgeRouterLimits(ports, n int) Limits {
	return Limits{
		Ports: ports,
		// Calibration (see package comment): with 350 ports the paper's
		// feasibility grid requires 630N < L34 budget < 700N and
		// 1680N <= MAC budget < 2100N.
		L34CriteriaTotal:   650 * n,
		MACFiltersTotal:    1800 * n,
		QoSPoliciesPerPort: 16 * n,
		CPULimitPct:        15.0,
		CPUBaselinePct:     2.0,
		CPUPerUpdatePct:    3.0, // (15-2)/3 = 4.33 updates/s at the cap
	}
}

// PortAlloc is the per-port filter allocation state.
type PortAlloc struct {
	MACFilters  int
	L34Criteria int
	QoSPolicies int
}

// EdgeRouter tracks TCAM allocations against Limits. All methods are
// safe for concurrent use.
type EdgeRouter struct {
	mu          sync.Mutex
	limits      Limits // Ports tracks len(ports)
	ports       []PortAlloc
	totalMAC    int
	totalL34    int
	reservedMAC int
	reservedL34 int
}

// NewEdgeRouter returns a router with no allocations.
func NewEdgeRouter(limits Limits) *EdgeRouter {
	return &EdgeRouter{limits: limits, ports: make([]PortAlloc, limits.Ports)}
}

// AddPort grows the router by one member port and returns its index. A
// member that joins a running exchange gets its slot here; the
// system-wide L3-L4 and MAC budgets do not depend on the port count, so
// admission control is unchanged.
func (r *EdgeRouter) AddPort() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ports = append(r.ports, PortAlloc{})
	r.limits.Ports = len(r.ports)
	return len(r.ports) - 1
}

// Allocate reserves TCAM resources for one blackholing rule on port:
// macFilters MAC criteria and l34 L3-L4 criteria, consuming one QoS
// policy slot. It fails atomically — checking F1 before F2, matching the
// paper's reporting precedence — without partial reservation.
func (r *EdgeRouter) Allocate(port, macFilters, l34 int) error {
	if macFilters < 0 || l34 < 0 {
		return fmt.Errorf("hw: negative allocation (%d MAC, %d L3-L4)", macFilters, l34)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if port < 0 || port >= len(r.ports) {
		return ErrUnknownPort
	}
	if r.totalL34+l34 > r.limits.L34CriteriaTotal-r.reservedL34 {
		return ErrL34Exhausted
	}
	if r.totalMAC+macFilters > r.limits.MACFiltersTotal-r.reservedMAC {
		return ErrMACExhausted
	}
	if r.ports[port].QoSPolicies+1 > r.limits.QoSPoliciesPerPort {
		return ErrQoSPoliciesExhausted
	}
	r.ports[port].MACFilters += macFilters
	r.ports[port].L34Criteria += l34
	r.ports[port].QoSPolicies++
	r.totalMAC += macFilters
	r.totalL34 += l34
	return nil
}

// Release returns previously allocated resources for one rule on port.
func (r *EdgeRouter) Release(port, macFilters, l34 int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if port < 0 || port >= len(r.ports) {
		return ErrUnknownPort
	}
	p := &r.ports[port]
	if p.MACFilters < macFilters || p.L34Criteria < l34 || p.QoSPolicies < 1 {
		return fmt.Errorf("hw: release exceeds allocation on port %d", port)
	}
	p.MACFilters -= macFilters
	p.L34Criteria -= l34
	p.QoSPolicies--
	r.totalMAC -= macFilters
	r.totalL34 -= l34
	return nil
}

// Headroom returns the remaining system-wide budgets, net of any
// reservation set with SetReserved.
func (r *EdgeRouter) Headroom() (mac, l34 int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mac = r.limits.MACFiltersTotal - r.reservedMAC - r.totalMAC
	l34 = r.limits.L34CriteriaTotal - r.reservedL34 - r.totalL34
	return mac, l34
}

// SetReserved withholds mac MAC-filter and l34 L3-L4 criteria from the
// system-wide budgets, shrinking what Allocate and Headroom see. It models
// TCAM pressure from outside the blackholing subsystem (other QoS features,
// a fault injector squeezing the budget); existing allocations are never
// revoked, so totals may transiently exceed the shrunken budget until
// rules are released. Negative values clamp to zero.
func (r *EdgeRouter) SetReserved(mac, l34 int) {
	if mac < 0 {
		mac = 0
	}
	if l34 < 0 {
		l34 = 0
	}
	r.mu.Lock()
	r.reservedMAC, r.reservedL34 = mac, l34
	r.mu.Unlock()
}

// Snapshot is a consistent point-in-time view of the router's allocation
// state: per-port allocations and the limits, read under one lock
// acquisition. The system-wide totals are the ports' sums; Headroom
// gives what remains of the budgets.
type Snapshot struct {
	Ports  []PortAlloc
	Limits Limits
}

// Snapshot returns the full allocation state in one call.
func (r *EdgeRouter) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	ports := make([]PortAlloc, len(r.ports))
	copy(ports, r.ports)
	return Snapshot{Ports: ports, Limits: r.limits}
}

// CPUModel is the control-plane CPU cost model of Figure 10(a): linear
// in the configuration update rate with multiplicative measurement noise.
type CPUModel struct {
	BaselinePct  float64
	PerUpdatePct float64
	// NoiseStd is the standard deviation of additive measurement noise
	// in CPU percentage points; zero for a deterministic model.
	NoiseStd float64
}

// NewCPUModel builds the model from router limits with the given noise.
func NewCPUModel(l Limits, noiseStd float64) CPUModel {
	return CPUModel{
		BaselinePct:  l.CPUBaselinePct,
		PerUpdatePct: l.CPUPerUpdatePct,
		NoiseStd:     noiseStd,
	}
}

// Usage returns the expected CPU percentage at the given update rate
// (updates per second), without noise.
func (m CPUModel) Usage(ratePerSec float64) float64 {
	return m.BaselinePct + m.PerUpdatePct*ratePerSec
}

// Sample returns a noisy CPU measurement at the given rate, clamped to
// [0, 100].
func (m CPUModel) Sample(ratePerSec float64, rng *stats.Rand) float64 {
	u := m.Usage(ratePerSec)
	if m.NoiseStd > 0 && rng != nil {
		u += rng.NormFloat64() * m.NoiseStd
	}
	if u < 0 {
		u = 0
	}
	if u > 100 {
		u = 100
	}
	return u
}
