// Package tamper simulates the secure-hardware substrate that the trusted
// cells vision assumes: a tamper-resistant execution environment (TEE) with a
// sealed key store, monotonic counters, attestation, and hard resource limits
// that model the spectrum of devices the paper enumerates (secure tokens,
// smart cards, set-top boxes, TrustZone smartphones).
//
// The simulation enforces the same *interface* guarantees the paper relies
// on: secrets sealed into the TEE can only be used, never exported; state
// updates go through monotonic counters so rollback is detectable; and every
// operation is charged against the profile's CPU/RAM/IO budget so that the
// experiments can contrast a 64 KiB secure token with a home gateway.
package tamper

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"trustedcells/internal/crypto"
)

// Errors returned by the TEE.
var (
	ErrNoSuchSecret   = errors.New("tamper: no such sealed secret")
	ErrCounterRewind  = errors.New("tamper: monotonic counter cannot move backwards")
	ErrNotProvisioned = errors.New("tamper: TEE has not been provisioned with a master secret")
	ErrLocked         = errors.New("tamper: TEE is locked; authenticate first")
	ErrBadPIN         = errors.New("tamper: authentication failed")
	ErrBricked        = errors.New("tamper: too many failed authentications, TEE is bricked")
)

// HardwareClass enumerates the device classes discussed in the paper.
type HardwareClass int

const (
	// ClassSecureToken is a smart-card-grade secure portable token: tiny RAM,
	// slow CPU, NAND flash behind a narrow bus (the PDS-style device).
	ClassSecureToken HardwareClass = iota
	// ClassSecureMCU is a secure microcontroller such as a power-meter or
	// home-gateway co-processor.
	ClassSecureMCU
	// ClassTrustZonePhone is an ARM TrustZone smartphone.
	ClassTrustZonePhone
	// ClassHomeGateway is a set-top-box / home-gateway class device.
	ClassHomeGateway
	// ClassCloudServer is an untrusted cloud server, included so the cost
	// model can also be applied to infrastructure-side computation.
	ClassCloudServer
)

// String returns the human-readable name of the class.
func (c HardwareClass) String() string {
	switch c {
	case ClassSecureToken:
		return "secure-token"
	case ClassSecureMCU:
		return "secure-mcu"
	case ClassTrustZonePhone:
		return "trustzone-phone"
	case ClassHomeGateway:
		return "home-gateway"
	case ClassCloudServer:
		return "cloud-server"
	default:
		return fmt.Sprintf("hardware-class(%d)", int(c))
	}
}

// Profile captures the resource envelope of a hardware class. The simulator
// and the embedded storage engine use it to bound RAM and to convert abstract
// work units into simulated time.
type Profile struct {
	Class HardwareClass
	// RAMBudget is the usable secure RAM in bytes.
	RAMBudget int
	// CPUFactor scales compute cost: simulated nanoseconds per work unit.
	CPUFactor float64
	// ReadLatency and WriteLatency model stable-storage (flash) access for a
	// 512-byte page.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// EnergyPerPage is an abstract energy unit charged per flash page write,
	// used by the co-design experiments.
	EnergyPerPage float64
}

// DefaultProfile returns the canonical profile for a hardware class. The
// numbers are calibrated to the orders of magnitude reported for smart-card
// microcontrollers, Cortex-M class MCUs and application processors.
func DefaultProfile(c HardwareClass) Profile {
	switch c {
	case ClassSecureToken:
		return Profile{
			Class: c, RAMBudget: 64 << 10, CPUFactor: 40,
			ReadLatency: 120 * time.Microsecond, WriteLatency: 450 * time.Microsecond,
			EnergyPerPage: 8,
		}
	case ClassSecureMCU:
		return Profile{
			Class: c, RAMBudget: 1 << 20, CPUFactor: 10,
			ReadLatency: 60 * time.Microsecond, WriteLatency: 250 * time.Microsecond,
			EnergyPerPage: 4,
		}
	case ClassTrustZonePhone:
		return Profile{
			Class: c, RAMBudget: 64 << 20, CPUFactor: 2,
			ReadLatency: 25 * time.Microsecond, WriteLatency: 90 * time.Microsecond,
			EnergyPerPage: 2,
		}
	case ClassHomeGateway:
		return Profile{
			Class: c, RAMBudget: 256 << 20, CPUFactor: 1.5,
			ReadLatency: 20 * time.Microsecond, WriteLatency: 70 * time.Microsecond,
			EnergyPerPage: 1.5,
		}
	case ClassCloudServer:
		return Profile{
			Class: c, RAMBudget: 8 << 30, CPUFactor: 1,
			ReadLatency: 10 * time.Microsecond, WriteLatency: 30 * time.Microsecond,
			EnergyPerPage: 1,
		}
	default:
		return Profile{Class: c, RAMBudget: 1 << 20, CPUFactor: 1,
			ReadLatency: time.Microsecond, WriteLatency: time.Microsecond, EnergyPerPage: 1}
	}
}

// CostMeter accumulates the simulated cost of operations executed inside a
// TEE. It is the measurement hook for the hardware-profile experiments.
type CostMeter struct {
	mu         sync.Mutex
	cpuUnits   float64
	pageReads  int64
	pageWrites int64
}

// ChargeCPU adds work units of compute.
func (m *CostMeter) ChargeCPU(units float64) {
	m.mu.Lock()
	m.cpuUnits += units
	m.mu.Unlock()
}

// ChargeRead adds n page reads.
func (m *CostMeter) ChargeRead(n int) {
	m.mu.Lock()
	m.pageReads += int64(n)
	m.mu.Unlock()
}

// ChargeWrite adds n page writes.
func (m *CostMeter) ChargeWrite(n int) {
	m.mu.Lock()
	m.pageWrites += int64(n)
	m.mu.Unlock()
}

// Snapshot returns the accumulated raw counters.
func (m *CostMeter) Snapshot() (cpuUnits float64, pageReads, pageWrites int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cpuUnits, m.pageReads, m.pageWrites
}

// Reset zeroes all counters.
func (m *CostMeter) Reset() {
	m.mu.Lock()
	m.cpuUnits = 0
	m.pageReads = 0
	m.pageWrites = 0
	m.mu.Unlock()
}

// SimulatedTime converts the accumulated counters into simulated wall time
// under the given profile.
func (m *CostMeter) SimulatedTime(p Profile) time.Duration {
	cpu, reads, writes := m.Snapshot()
	d := time.Duration(cpu*p.CPUFactor) * time.Nanosecond
	d += time.Duration(reads) * p.ReadLatency
	d += time.Duration(writes) * p.WriteLatency
	return d
}

// Energy converts page writes into abstract energy units under the profile.
func (m *CostMeter) Energy(p Profile) float64 {
	_, _, writes := m.Snapshot()
	return float64(writes) * p.EnergyPerPage
}

// TEE is a simulated trusted execution environment. It holds sealed secrets
// that can be used through the TEE API but never exported, plus monotonic
// counters and the device's attestation identity.
type TEE struct {
	mu       sync.Mutex
	profile  Profile
	master   crypto.SymmetricKey
	identity *crypto.SigningKey
	sealed   map[string]crypto.SymmetricKey
	counters map[string]uint64
	meter    *CostMeter

	provisioned bool
	locked      bool
	pinHash     []byte
	pinFailures int
	maxFailures int
	bricked     bool
}

// MaxPINFailures is the number of consecutive authentication failures after
// which the TEE bricks itself (smart-card behaviour).
const MaxPINFailures = 3

// New creates a TEE with the given profile. The TEE starts unprovisioned and
// unlocked; Provision installs the master secret and the owner PIN.
func New(p Profile) *TEE {
	return &TEE{
		profile:     p,
		sealed:      make(map[string]crypto.SymmetricKey),
		counters:    make(map[string]uint64),
		meter:       &CostMeter{},
		maxFailures: MaxPINFailures,
	}
}

// Profile returns the hardware profile of the device.
func (t *TEE) Profile() Profile { return t.profile }

// Meter returns the device cost meter.
func (t *TEE) Meter() *CostMeter { return t.meter }

// Provision installs a fresh master secret and identity key, protected by the
// owner PIN. It can only be called once.
func (t *TEE) Provision(pin string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.provisioned {
		return errors.New("tamper: TEE already provisioned")
	}
	master, err := crypto.NewSymmetricKey()
	if err != nil {
		return fmt.Errorf("tamper: provisioning: %w", err)
	}
	identity, err := crypto.NewSigningKey()
	if err != nil {
		return fmt.Errorf("tamper: provisioning: %w", err)
	}
	t.master = master
	t.identity = identity
	t.pinHash = crypto.Hash([]byte("pin:" + pin))
	t.provisioned = true
	t.locked = true
	return nil
}

// ProvisionDeterministic installs a master secret and identity derived from a
// seed. Used by the simulator to build reproducible cell populations; real
// deployments use Provision.
func (t *TEE) ProvisionDeterministic(seed []byte, pin string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.provisioned {
		return errors.New("tamper: TEE already provisioned")
	}
	if len(seed) == 0 {
		return errors.New("tamper: empty provisioning seed")
	}
	h := crypto.Hash(append([]byte("tee-master:"), seed...))
	master, err := crypto.SymmetricKeyFromBytes(h)
	if err != nil {
		return err
	}
	idSeed := crypto.Hash(append([]byte("tee-identity:"), seed...))
	identity, err := crypto.SigningKeyFromSeed(idSeed)
	if err != nil {
		return err
	}
	t.master = master
	t.identity = identity
	t.pinHash = crypto.Hash([]byte("pin:" + pin))
	t.provisioned = true
	t.locked = true
	return nil
}

// Unlock authenticates the owner. The paper notes that even the owner cannot
// read raw cell state; Unlock only enables use of the TEE API, it never
// exports secrets.
func (t *TEE) Unlock(pin string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.provisioned {
		return ErrNotProvisioned
	}
	if t.bricked {
		return ErrBricked
	}
	if string(t.pinHash) != string(crypto.Hash([]byte("pin:"+pin))) {
		t.pinFailures++
		if t.pinFailures >= t.maxFailures {
			t.bricked = true
			return ErrBricked
		}
		return ErrBadPIN
	}
	t.pinFailures = 0
	t.locked = false
	return nil
}

// Lock relocks the TEE (e.g. when the device is put away).
func (t *TEE) Lock() {
	t.mu.Lock()
	t.locked = true
	t.mu.Unlock()
}

// Locked reports whether the TEE currently requires authentication.
func (t *TEE) Locked() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.locked || !t.provisioned
}

func (t *TEE) usable() error {
	if !t.provisioned {
		return ErrNotProvisioned
	}
	if t.bricked {
		return ErrBricked
	}
	if t.locked {
		return ErrLocked
	}
	return nil
}

// KeyHierarchy returns the key hierarchy rooted at the sealed master secret.
// The hierarchy object performs derivations inside the TEE boundary.
func (t *TEE) KeyHierarchy() (*crypto.KeyHierarchy, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.usable(); err != nil {
		return nil, err
	}
	t.meter.ChargeCPU(5)
	return crypto.NewKeyHierarchy(t.master), nil
}

// Identity returns the device's attestation public key.
func (t *TEE) Identity() (crypto.VerifyKey, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.provisioned {
		return crypto.VerifyKey{}, ErrNotProvisioned
	}
	return t.identity.Public(), nil
}

// Sign signs msg with the device identity key (certified data, protocol
// messages). Available only when unlocked.
func (t *TEE) Sign(msg []byte) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.usable(); err != nil {
		return nil, err
	}
	t.meter.ChargeCPU(float64(50 + len(msg)/64))
	return t.identity.Sign(msg), nil
}

// SealSecret stores a named symmetric key inside the TEE. The key can later
// be used via UseSecret but never read back.
func (t *TEE) SealSecret(name string, key crypto.SymmetricKey) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.usable(); err != nil {
		return err
	}
	t.sealed[name] = key
	return nil
}

// UseSecret runs fn with the named sealed secret without exposing it outside
// the TEE boundary. fn must not retain the key.
func (t *TEE) UseSecret(name string, fn func(crypto.SymmetricKey) error) error {
	t.mu.Lock()
	key, ok := t.sealed[name]
	err := t.usable()
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if !ok {
		return ErrNoSuchSecret
	}
	return fn(key)
}

// CounterIncrement advances a named monotonic counter and returns its new
// value. Monotonic counters let cells detect rollback of cloud state.
func (t *TEE) CounterIncrement(name string) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.usable(); err != nil {
		return 0, err
	}
	t.counters[name]++
	return t.counters[name], nil
}

// CounterValue returns the current value of a named counter.
func (t *TEE) CounterValue(name string) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.usable(); err != nil {
		return 0, err
	}
	return t.counters[name], nil
}

// CounterAdvanceTo sets a counter to v, which must not be lower than the
// current value. Used when restoring state from a trusted backup.
func (t *TEE) CounterAdvanceTo(name string, v uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.usable(); err != nil {
		return err
	}
	if v < t.counters[name] {
		return ErrCounterRewind
	}
	t.counters[name] = v
	return nil
}
