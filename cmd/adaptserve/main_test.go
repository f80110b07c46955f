package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"adapt/internal/cli"
	"adapt/internal/gcsched"
	"adapt/internal/lss"
	"adapt/internal/nbd"
	"adapt/internal/prototype"
	"adapt/internal/segfile"
	"adapt/internal/serve"
	"adapt/internal/server"
)

// defaults is what `adaptserve` with no flags serves, spelled out. The
// benchmark runs these defaults (bench/child.go overrides only
// -volumes, -user-blocks, -shards, -data-dir and the listen addresses),
// so a change here is a benchmark change and must be made on purpose.
func defaults() (serve.Config, listen) {
	return serve.Config{
			Engine: prototype.ShardedConfig{
				Engine: prototype.EngineConfig{
					Store: lss.Config{
						BlockSize:     4096,
						ChunkBlocks:   16,
						SegmentChunks: 16,
						DataColumns:   3,
						UserBlocks:    64 << 10,
						OverProvision: 0.15,
						Victim:        lss.Greedy,
					},
				},
				Shards: 0,
			},
			Server: server.Config{
				Volumes:     8,
				MaxInflight: 64,
				Trace:       server.TraceConfig{Enabled: true, Threshold: 500 * time.Microsecond},
			},
		},
		listen{wire: "127.0.0.1:9750", telemetry: "127.0.0.1:9751", policy: "adapt"}
}

// TestConfigFromFlags pins the flag → Config mapping: the no-flag
// defaults as a literal, and every flag group that reaches a different
// part of the Config. The two fields a literal cannot carry are checked
// by what they do: the telemetry set must exist, and the policy factory
// must build the named policy.
func TestConfigFromFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		edit func(*serve.Config, *listen)
	}{
		{"defaults", nil, func(*serve.Config, *listen) {}},
		{"bench/child.go serverArgs",
			[]string{"-addr", "127.0.0.1:0", "-telemetry", "", "-volumes", "2", "-user-blocks", "65536",
				"-shards", "2", "-data-dir", "/d", "-nbd-addr", "127.0.0.1:0"},
			func(c *serve.Config, l *listen) {
				c.Server.Volumes, c.Engine.Shards, c.DataDir = 2, 2, "/d"
				c.Engine.Engine.Durable = &segfile.Options{Sync: segfile.SyncOnSeal}
				c.NBD = &nbd.Config{}
				l.wire, l.telemetry, l.nbd = "127.0.0.1:0", "", "127.0.0.1:0"
			}},
		{"engine and server knobs",
			[]string{"-policy", "sepgc", "-victim", "cost-benefit", "-user-blocks", "4096",
				"-max-inflight", "8", "-trace=false", "-trace-threshold-us", "250"},
			func(c *serve.Config, l *listen) {
				c.Engine.Engine.Store.UserBlocks, c.Engine.Engine.Store.SegmentChunks = 4096, 2
				c.Engine.Engine.Store.Victim = lss.CostBenefit
				c.Server.MaxInflight = 8
				c.Server.Trace = server.TraceConfig{Threshold: 250 * time.Microsecond}
				l.policy = "sepgc"
			}},
		{"windowed-greedy victim", []string{"-victim", "windowed-greedy"},
			func(c *serve.Config, _ *listen) { c.Engine.Engine.Store.Victim = lss.WindowedGreedy }},
		{"random-greedy victim", []string{"-victim", "random-greedy"},
			func(c *serve.Config, _ *listen) { c.Engine.Engine.Store.Victim = lss.RandomGreedy }},
		{"paced GC",
			[]string{"-gc-bg", "-gc-slice-units", "16", "-gc-interval-us", "200"},
			func(c *serve.Config, _ *listen) {
				c.GC = &gcsched.Config{Interval: 200 * time.Microsecond, SliceUnits: 16, TargetP999: 2 * time.Millisecond}
			}},
		{"paced GC without tail feedback",
			[]string{"-gc-bg", "-gc-target-p999-us", "0"},
			func(c *serve.Config, _ *listen) { c.GC = &gcsched.Config{} }},
		{"pacer flags without -gc-bg", []string{"-gc-slice-units", "16"}, func(*serve.Config, *listen) {}},
		{"durable, strict",
			[]string{"-data-dir", "/d", "-durable-sync", "always"},
			func(c *serve.Config, _ *listen) {
				c.DataDir = "/d"
				c.Engine.Engine.Durable = &segfile.Options{Sync: segfile.SyncAlways}
			}},
		{"-durable-sync without -data-dir", []string{"-durable-sync", "always"}, func(*serve.Config, *listen) {}},
		{"NBD with a request cap",
			[]string{"-nbd-addr", "127.0.0.1:10809", "-nbd-max-req-kib", "64"},
			func(c *serve.Config, l *listen) {
				c.NBD = &nbd.Config{MaxRequestBytes: 64 << 10}
				l.nbd = "127.0.0.1:10809"
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, at, err := configFromFlags(cli.New("adaptserve"), tc.args)
			if err != nil {
				t.Fatal(err)
			}
			want, wantAt := defaults()
			tc.edit(&want, &wantAt)
			if at != wantAt {
				t.Errorf("listen: got %+v, want %+v", at, wantAt)
			}
			if got.Engine.Engine.Telemetry == nil {
				t.Error("no telemetry set: /metrics would be empty")
			}
			pol, err := got.Engine.PolicyFactory(0, got.Engine.Engine.Store)
			if err != nil || pol.Name() != wantAt.policy {
				t.Errorf("policy factory builds %v (%v), want %s", pol, err, wantAt.policy)
			}
			got.Engine.Engine.Telemetry, got.Engine.PolicyFactory = nil, nil
			for _, f := range []struct {
				field     string
				got, want any
			}{
				{"Engine", got.Engine, want.Engine},
				{"Server", got.Server, want.Server},
				{"GC", got.GC, want.GC},
				{"NBD", got.NBD, want.NBD},
				{"DataDir", got.DataDir, want.DataDir},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s:\n got %+v\nwant %+v", f.field, f.got, f.want)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Config has a field the list above does not name:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestConfigFromFlagsUsageErrors: every invalid combination is refused
// before anything is built, with the message main prints above the
// usage.
func TestConfigFromFlagsUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-volumes", "0"}, "-volumes must be at least 1, got 0"},
		{[]string{"-user-blocks", "0"}, "-user-blocks must be at least 1, got 0"},
		{[]string{"-user-blocks", "-8"}, "-user-blocks must be at least 1, got -8"},
		{[]string{"-shards", "-1"}, "-shards must be non-negative, got -1"},
		{[]string{"-max-inflight", "-1"}, "-max-inflight must be non-negative, got -1"},
		{[]string{"-trace-threshold-us", "-1"}, "-trace-threshold-us must be non-negative, got -1"},
		{[]string{"-gc-bg", "-gc-slice-units", "-1"}, "-gc-slice-units must be non-negative, got -1"},
		{[]string{"-gc-bg", "-gc-interval-us", "-1"}, "-gc-interval-us must be non-negative, got -1"},
		{[]string{"-gc-bg", "-gc-target-p999-us", "-1"}, "-gc-target-p999-us must be non-negative, got -1"},
		{[]string{"-gc-target-p999-us", "-5"}, "-gc-target-p999-us must be non-negative, got -5"},
		{[]string{"-victim", "oldest"}, `unknown victim policy "oldest"`},
		{[]string{"-policy", "fifo"}, `unknown policy "fifo" (want sepgc|dac|warcip|mida|sepbit|adapt)`},
		{[]string{"-data-dir", "/d", "-durable-sync", "never"}, `unknown -durable-sync "never" (want always|seal)`},
		{[]string{"-nbd-max-req-kib", "64"}, "-nbd-max-req-kib requires -nbd-addr"},
		{[]string{"-nbd-addr", ":0", "-nbd-max-req-kib", "-1"}, "-nbd-max-req-kib must be non-negative, got -1"},
		{[]string{"stray"}, "unexpected arguments: [stray]"},
	} {
		_, _, err := configFromFlags(cli.New("adaptserve"), tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
