package adapt

import (
	"errors"
	"math"
	"testing"
	"time"
)

// The untyped name constants must keep assigning to both plain strings
// (existing callers) and the typed layer.
var (
	_ string = PolicyADAPT
	_ Policy = PolicyADAPT
	_ string = VictimGreedy
	_ Victim = VictimGreedy
)

func TestParsePolicy(t *testing.T) {
	for _, name := range Policies() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("ParsePolicy(%q) = %q", name, p)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyADAPT {
		t.Fatalf("empty name = (%q, %v), want default adapt", p, err)
	}
	_, err := ParsePolicy("bogus")
	if !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("unknown policy error = %v, want ErrUnknownPolicy", err)
	}
}

func TestParseVictim(t *testing.T) {
	for _, name := range Victims() {
		v, err := ParseVictim(name)
		if err != nil {
			t.Fatalf("ParseVictim(%q): %v", name, err)
		}
		if v.String() != name {
			t.Fatalf("ParseVictim(%q) = %q", name, v)
		}
	}
	if v, err := ParseVictim(""); err != nil || v != VictimGreedy {
		t.Fatalf("empty name = (%q, %v), want default greedy", v, err)
	}
	_, err := ParseVictim("bogus")
	if !errors.Is(err, ErrUnknownVictim) {
		t.Fatalf("unknown victim error = %v, want ErrUnknownVictim", err)
	}
}

// TestNameListingsExhaustive pins the listing functions to the parse
// layer: every listed name must round-trip through its parser AND
// build a working simulator, every exported name constant must appear
// in its listing, and near-miss spellings must be rejected with the
// right sentinel. A new policy that is added to one side but not the
// other fails here.
func TestNameListingsExhaustive(t *testing.T) {
	wantPolicies := []string{PolicySepGC, PolicyDAC, PolicyWARCIP, PolicyMiDA, PolicySepBIT, PolicyADAPT}
	wantVictims := []string{VictimGreedy, VictimCostBenefit, VictimDChoices, VictimWindowedGreedy, VictimRandomGreedy}
	cases := []struct {
		kind     string
		listing  []string
		want     []string
		parse    func(string) (string, error)
		sentinel error
	}{
		{"policy", Policies(), wantPolicies,
			func(s string) (string, error) { p, err := ParsePolicy(s); return p.String(), err },
			ErrUnknownPolicy},
		{"victim", Victims(), wantVictims,
			func(s string) (string, error) { v, err := ParseVictim(s); return v.String(), err },
			ErrUnknownVictim},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			if len(tc.listing) != len(tc.want) {
				t.Fatalf("listing has %d names, exported constants %d", len(tc.listing), len(tc.want))
			}
			listed := map[string]bool{}
			for i, name := range tc.listing {
				listed[name] = true
				if name != tc.want[i] {
					t.Errorf("listing[%d] = %q, want %q (evaluation order)", i, name, tc.want[i])
				}
				got, err := tc.parse(name)
				if err != nil || got != name {
					t.Errorf("parse(%q) = (%q, %v), want clean round-trip", name, got, err)
				}
				// Every listed name must also survive the constructor.
				cfg := SimulatorConfig{UserBlocks: 4 << 10}
				if tc.kind == "policy" {
					cfg.Policy = name
				} else {
					cfg.Victim = name
				}
				if _, err := NewSimulator(cfg); err != nil {
					t.Errorf("NewSimulator with %s %q: %v", tc.kind, name, err)
				}
				// Case and whitespace variants are NOT accepted silently.
				for _, bad := range []string{" " + name, name + " ", "X" + name} {
					if _, err := tc.parse(bad); !errors.Is(err, tc.sentinel) {
						t.Errorf("parse(%q) = %v, want sentinel rejection", bad, err)
					}
				}
			}
			for _, name := range tc.want {
				if !listed[name] {
					t.Errorf("exported constant %q missing from listing", name)
				}
			}
		})
	}
}

// TestBuildValidationNoPanic checks that configurations which used to
// panic deep inside the store (or the array constructor) now surface
// as constructor errors.
func TestBuildValidationNoPanic(t *testing.T) {
	cases := []struct {
		name string
		cfg  SimulatorConfig
	}{
		{"negative over-provision", SimulatorConfig{UserBlocks: 1024, OverProvision: -0.1}},
		{"over-provision below GC floor", SimulatorConfig{UserBlocks: 1024, OverProvision: 0.01}},
		{"negative data columns", SimulatorConfig{UserBlocks: 1024, DataColumns: -1}},
		{"negative chunk blocks", SimulatorConfig{UserBlocks: 1024, ChunkBlocks: -4}},
		{"negative segment chunks", SimulatorConfig{UserBlocks: 1024, SegmentChunks: -2}},
		{"negative block size", SimulatorConfig{UserBlocks: 1024, BlockSize: -4096}},
		{"negative SLA window", SimulatorConfig{UserBlocks: 1024, SLAWindow: -time.Microsecond}},
		{"zero capacity", SimulatorConfig{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NewSimulator panicked: %v", r)
				}
			}()
			if _, err := NewSimulator(tc.cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	// Errors from bad names must carry the sentinels through the
	// constructor too.
	if _, err := NewSimulator(SimulatorConfig{UserBlocks: 1024, Policy: "bogus"}); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("constructor policy error = %v, want ErrUnknownPolicy", err)
	}
	if _, err := NewSimulator(SimulatorConfig{UserBlocks: 1024, Victim: "bogus"}); !errors.Is(err, ErrUnknownVictim) {
		t.Fatalf("constructor victim error = %v, want ErrUnknownVictim", err)
	}
}

// TestRunPrototypeFault drives the fault injector through the public
// API: the failure fires, every phase reports, and the counters are
// live.
func TestRunPrototypeFault(t *testing.T) {
	res, err := RunPrototype(PrototypeConfig{
		Simulator:   SimulatorConfig{UserBlocks: 8 << 10, Policy: PolicySepGC},
		Clients:     4,
		Ops:         16000,
		Theta:       0.99,
		Fill:        true,
		ReadRatio:   0.2,
		ServiceTime: time.Microsecond,
		QueueDepth:  8,
		Seed:        9,
		Fault: FaultConfig{
			FailDevice:      0,
			FailAtOp:        4000,
			RebuildDelayOps: 2000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedDevice != 0 || res.FailedAtOp != 4000 {
		t.Fatalf("failure not recorded: %+v", res)
	}
	if res.RebuildChunks == 0 {
		t.Fatal("rebuild moved no chunks")
	}
	phases := map[string]bool{}
	for _, p := range res.Phases {
		phases[p.Phase] = true
	}
	for _, want := range []string{"healthy", "degraded", "rebuilding", "rebuilt"} {
		if !phases[want] {
			t.Fatalf("phase %q missing from %+v", want, res.Phases)
		}
	}
	// A healthy run keeps the fault fields zeroed and the device at -1.
	healthy, err := RunPrototype(PrototypeConfig{
		Simulator:   SimulatorConfig{UserBlocks: 4 << 10, Policy: PolicySepGC},
		Clients:     2,
		Ops:         4000,
		Theta:       0.9,
		ServiceTime: time.Microsecond,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.FailedDevice != -1 || len(healthy.Phases) != 0 {
		t.Fatalf("healthy run carries fault state: %+v", healthy)
	}
}

// TestRunPrototypeRejectsReadRatio: a read ratio outside [0, 1], NaN
// included, is an error through the public API, not a silent 0 or 1.
func TestRunPrototypeRejectsReadRatio(t *testing.T) {
	for _, r := range []float64{-0.5, 1.01, math.NaN()} {
		_, err := RunPrototype(PrototypeConfig{
			Simulator: SimulatorConfig{UserBlocks: 4 << 10, Policy: PolicySepGC},
			Clients:   1,
			Ops:       100,
			ReadRatio: r,
		})
		if err == nil {
			t.Errorf("read ratio %v accepted", r)
		}
	}
}
