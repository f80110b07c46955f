package adapt

import (
	"errors"
	"fmt"
	"slices"

	"adapt/internal/lss"
	"adapt/internal/placement"
)

// Sentinel errors returned (wrapped) by the name-parsing API, so
// callers can distinguish a bad policy name from a bad victim name
// with errors.Is.
var (
	ErrUnknownPolicy = errors.New("adapt: unknown placement policy")
	ErrUnknownVictim = errors.New("adapt: unknown victim policy")
)

// Policy is a validated placement policy name. The untyped string
// constants (PolicySepGC, ..., PolicyADAPT) assign to it directly, and
// ParsePolicy lifts runtime strings (flags, config files) into it with
// validation. SimulatorConfig.Policy remains a plain string for
// compatibility; it is parsed through ParsePolicy when the simulator
// is built.
type Policy string

// String returns the policy name.
func (p Policy) String() string { return string(p) }

// ParsePolicy validates a placement policy name. The empty string
// parses to the default (ADAPT); unknown names return an error
// wrapping ErrUnknownPolicy.
func ParsePolicy(name string) (Policy, error) {
	if name == "" {
		return PolicyADAPT, nil
	}
	if !slices.Contains(placement.Names(), name) {
		return "", fmt.Errorf("%w: %q", ErrUnknownPolicy, name)
	}
	return Policy(name), nil
}

// Victim is a validated GC victim policy name. Like Policy, the
// untyped constants (VictimGreedy, ...) assign to it directly and
// SimulatorConfig.Victim stays a plain string on the outside.
type Victim string

// String returns the victim policy name.
func (v Victim) String() string { return string(v) }

// ParseVictim validates a victim policy name. The empty string parses
// to the default (greedy); unknown names return an error wrapping
// ErrUnknownVictim.
func ParseVictim(name string) (Victim, error) {
	if _, err := victimPolicy(name); err != nil {
		return "", err
	}
	if name == "" {
		return VictimGreedy, nil
	}
	return Victim(name), nil
}

// lss maps a validated Victim onto the store's enum.
func (v Victim) lss() (lss.VictimPolicy, error) { return victimPolicy(string(v)) }

// victimPolicy maps a name onto the store's enum through the store's
// own name table (lss.ParseVictim); the empty string is greedy.
func victimPolicy(name string) (lss.VictimPolicy, error) {
	if name == "" {
		return lss.Greedy, nil
	}
	v, ok := lss.ParseVictim(name)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownVictim, name)
	}
	return v, nil
}
